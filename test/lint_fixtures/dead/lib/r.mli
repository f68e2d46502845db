(* dead-export fixture: a test-hooked val that its test reads at top
   level while one of the test's submodules aliases [R] to another
   module. *)

(* test-hook: test/test_r.ml *)
val f : int -> int
