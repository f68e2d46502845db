(** Interprocedural hot-path closure (rule [Hot_reach]; DESIGN.md §12).

    Breadth-first closure of the call graph from the [[@hot]] roots of
    the configured hot modules. Allocation/blocking facts of reached
    bindings become [Hot_reach] findings at the callee's location, each
    carrying the full shortest call chain from a root
    (["Pop.handle_arrival"; "Pop.deliver_to_host"; ...]). Bindings the
    intraprocedural pass already owns ([[@hot]] bindings inside hot
    modules) are traversed but not re-reported. *)

val findings :
  config:Ast_check.config ->
  lib_map:(string * string) list ->
  Callgraph.summary list ->
  Rules.finding list
(** Deterministic (location-sorted, deduplicated) finding list. *)
