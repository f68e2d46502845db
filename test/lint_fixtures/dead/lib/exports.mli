(* dead-export fixture: one val per way a reader can (or cannot)
   reference an export. Programs live in the sibling bin/; the sibling
   test/ is read only where a test-hook marker names it. *)

val via_alias : int -> int
val via_open : int -> int
val via_local_open : int -> int

module Arg : sig
  val via_functor : int -> int
end

val test_only : int -> int
val own_only : int -> int
val unreferenced : int -> int

(* tango-lint: allow dead-export — kept for the fixture's waiver case *)
val waived : int -> int

(* test-hook: test/test_exports.ml *)
val hooked : int -> int

(* test-hook: test/test_exports.ml *)
val hook_unread : int -> int

(* test-hook: test/test_missing.ml *)
val hook_no_file : int -> int

(* test-hook: test/test_exports.ml *)
val hook_stale : int -> int

(* test-hook: test/test_exports.ml *)

val after_blank : int -> int
