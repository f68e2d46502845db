(** Parsing and bookkeeping for waiver comments: [tango-lint: allow
    <rule> — <reason>] inside an ordinary comment, in a .ml or a .mli.
    A waiver suppresses findings of its rule on its own line
    (end-of-line comment) or the line immediately below (comment above
    the offending expression or [val]). *)

type t = {
  line : int;
  rule : Rules.rule;
  reason : string;
  mutable used : bool;  (** set by the engine when the waiver suppresses a finding *)
}

val scan : path:string -> string -> t list * Rules.finding list
(** Scan raw source text. Returns the well-formed waivers plus one
    [Waiver] finding per malformed comment (unknown rule, missing
    reason, unterminated). *)

val covers : t -> rule:Rules.rule -> line:int -> bool

val unused_findings : path:string -> t list -> Rules.finding list
(** A [Waiver] finding for every waiver whose [used] flag was never set:
    stale waivers must not accumulate. *)
