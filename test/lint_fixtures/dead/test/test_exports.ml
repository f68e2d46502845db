let () = assert (Exports.test_only 0 = 5)
