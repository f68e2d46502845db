module E = Exports

let () = print_int (E.via_alias 1)
