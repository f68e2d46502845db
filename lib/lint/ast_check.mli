(** The AST-level rule implementations. Purely syntactic — shape
    heuristics over the untyped parsetree, tuned so a bare identifier is
    never flagged while tuples / records / constructors / float literals
    always are. *)

type config = {
  hot_modules : string list;
      (** Path fragments (e.g. ["dataplane/fabric.ml"]) of the designated
          hot-path modules where [Hot_alloc] applies to [@hot] bindings. *)
  domsafe_modules : string list;
      (** Path fragments of the lane-visible multicore-dataplane modules
          where the domain-safety rules apply. *)
  exn_ban_paths : string list;
      (** Path fragments (e.g. ["lib/net/"]) where [No_failwith] applies. *)
  wallclock_allow : string list;
      (** Path fragments where wall-clock reads are sanctioned
          (manifest / wall-duration code in lib/obs). *)
  require_mli : bool;  (** Whether [Missing_mli] is enforced by the engine. *)
}

val default : config
(** The repo's designated hot modules and per-packet library paths. *)

val path_matches : string -> string list -> bool
(** [path_matches path fragments] — substring match on the normalized path. *)

val strip_wrappers : Parsetree.expression -> Parsetree.expression
(** Peel [Pexp_constraint] / [Pexp_coerce] wrappers. *)

val has_hot_attr : Parsetree.attributes -> bool
(** Whether a binding carries [[@hot]] (or [[@tango.hot]]). *)

val loc_finding :
  file:string -> loc:Location.t -> Rules.rule -> string -> Rules.finding

(** {1 Hot-body facts}

    The R1/R1b discipline expressed as data: the same walk that flags
    [@hot] bodies intraprocedurally summarizes every other function so
    the interprocedural pass (Hotset) can apply the discipline along
    call chains without re-walking the AST. *)

type fact_kind = Alloc | Block

type fact = { f_line : int; f_col : int; f_kind : fact_kind; f_msg : string }

val binding_facts : Parsetree.expression -> fact list
(** Allocation and blocking facts of a binding's body, walking past the
    binding's own parameter lambda chain (the outermost lambdas are the
    function, not an allocation) but checking default-argument
    expressions. *)

val finding_of_fact : file:string -> fact -> Rules.finding
(** [Hot_alloc] for [Alloc] facts, [No_mutex_hot] for [Block] facts. *)

val check_structure : config -> file:string -> Parsetree.structure -> Rules.finding list
(** Run the hot-allocation, polymorphic-compare and exception-ban passes
    over one parsed implementation. The domain-safety and determinism
    passes ([Domsafe], [Determinism]) are composed with these by the
    engine. Waivers are applied by the engine, not here. *)
