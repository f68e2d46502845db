let () = print_int Exports.(via_local_open 1)
