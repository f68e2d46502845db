(** Rule [dead-export] (DESIGN.md §12): a [val] in a library interface
    that no implementation outside its own module references.

    Name-based, like {!Callgraph}: a reader references [M.f] by a path
    ending in [M.f] (after expanding module aliases), by a bare or
    partial path in a file that opens [M], or by passing [M] as a
    functor argument (which references every value of [M]). *)

type refs = { values : string list; modules : string list }
(** What one implementation references: dotted value paths (each also
    prefixed by every module the file opens) and modules used whole. *)

val references : Parsetree.structure -> refs
(** Every reference in the file, module-initialization code included. *)

type index

val index : (string * refs) list -> index
(** Index [(reader path, refs)] pairs by qualified name. *)

val check : index -> mli:string -> Parsetree.signature -> Rules.finding list
(** A [Dead_export] finding for every val of [mli] (top level and in
    nested module signatures) that no reader other than the module's own
    .ml references. *)
