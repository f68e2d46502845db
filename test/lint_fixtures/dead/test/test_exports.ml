let () = assert (Exports.test_only 0 = 5)
let () = assert (Exports.hooked 0 = 8)
let () = assert (Exports.hook_no_file 0 = 10)
let () = assert (Exports.after_blank 0 = 12)
