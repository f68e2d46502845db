let () = print_int (Exports.hook_stale 1)
