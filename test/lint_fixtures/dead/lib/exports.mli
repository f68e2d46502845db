(* dead-export fixture: one val per way a reader can (or cannot)
   reference an export. Readers live in the sibling bin/ and test/. *)

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
