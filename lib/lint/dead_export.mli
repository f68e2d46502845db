(** Rule [dead-export] (DESIGN.md §12): a [val] in a library interface
    that no program outside its own module references. Programs are
    the library's implementations and the executables beside it; a val
    only a test needs is kept by a test-hook marker,
    [(* test-hook: test/test_x.ml *)] on the line above it.

    Name-based, like {!Callgraph}: a reader references [M.f] by a path
    ending in [M.f] (after expanding module aliases), by a bare or
    partial path in a file that opens [M], or by passing [M] as a
    functor argument (which references every value of [M]). *)

type refs = { values : string list; modules : string list }
(** What one implementation references: dotted value paths (each as
    written and, when it starts with a module alias, expanded; each also
    prefixed by every module the file opens) and modules used whole. *)

val references : Parsetree.structure -> refs
(** Every reference in the file, module-initialization code included. *)

type index

val index : (string * refs) list -> index
(** Index [(reader path, refs)] pairs by qualified name. *)

val check :
  index ->
  test_reader:(string -> index option) ->
  mli:string ->
  source:string ->
  Parsetree.signature ->
  Rules.finding list
(** [Dead_export] findings for [mli] (its text [source], parsed as the
    signature): every val (top level and in nested module signatures)
    that no reader in [index] other than the module's own .ml
    references and that has no test-hook marker; every marker whose
    val a reader does reference (stale, like an unused waiver); every
    marker whose named test, as [test_reader] indexes it, does not
    reference its val or is no test file ([None]); and every marker
    not on the line above a val. *)
