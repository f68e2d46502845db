(** The rule catalogue of [tango_lint] and the finding record every
    check produces. Rule identifiers (the kebab-case strings) are the
    stable names used in reports and in waiver comments. *)

type rule =
  | Hot_alloc  (** R1: allocation ban inside [@hot] functions of hot modules *)
  | No_mutex_hot
      (** R1b: no Mutex/Condition/Semaphore and no blocking Domain ops
          inside [@hot] functions — the lock-free packet path must never
          block a domain ([Domain.cpu_relax] is the one exception) *)
  | Hot_reach
      (** R6: interprocedural extension of R1/R1b — the alloc and
          blocking bans apply to every function transitively reachable
          from a [@hot] body; findings carry the call chain *)
  | Domsafe_mutation
      (** R7: plain mutable-field writes to lane-shared records (types
          carrying an [Atomic.t] field) outside the sanctioned
          Atomic-cursor ring-publication pattern *)
  | Domsafe_blocking
      (** R7b: Mutex/Condition/Semaphore anywhere in lane-visible
          modules, hot-annotated or not *)
  | Domain_self  (** R7c: [Domain.self]-dependent control flow in lane modules *)
  | Wallclock
      (** R8: wall-clock reads outside lib/obs manifest code break
          seeded reproducibility *)
  | Unseeded_random  (** R8b: global [Random] state instead of seeded state *)
  | Iter_order
      (** R8c: [Hashtbl.iter]/[fold] feeding merges or exported output —
          iteration-order nondeterminism; collect-and-sort is exempt *)
  | Poly_compare  (** R2: polymorphic compare/equal/hash on structured values *)
  | Float_equal  (** R2b: float (in)equality — NaN hazard *)
  | No_failwith  (** R3: undeclared exceptions in per-packet libraries *)
  | Missing_mli  (** R4: .ml without a matching .mli *)
  | Dead_export
      (** R9: a [val] in a library interface that no implementation
          outside its own module references *)
  | Waiver  (** R5: malformed or unused waiver comments *)
  | Parse_error  (** the file failed to parse at all *)

val all : rule list

val id : rule -> string
(** Stable kebab-case identifier, e.g. ["hot-alloc"]. *)

val of_id : string -> rule option

val describe : rule -> string
(** One-line human rationale, used by [--rules] and the docs. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
  chain : string list;
      (** display names of the call chain from a [@hot] root down to the
          offending function for interprocedural findings; [[]] for
          local findings *)
}

val v : file:string -> line:int -> col:int -> rule -> string -> finding
(** A finding with an empty chain. *)

val finding_compare : finding -> finding -> int
(** Order by file, line, column, then rule id — the report order. *)
