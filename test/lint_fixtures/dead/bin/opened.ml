open Exports

let () = print_int (via_open 1)
