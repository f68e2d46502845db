(** CIDR prefixes over {!Addr.t}, used both as destination aggregates and —
    Tango's reinterpretation — as names for wide-area routes.

    A prefix is stored in canonical form: host bits are zeroed at
    construction time, so structural equality matches semantic equality. *)

type t

val length : t -> int
(** Prefix length in bits. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val of_string : string -> (t, string) result
(** Parse ["addr/len"]. *)

val of_string_exn : string -> t
val to_string : t -> string

val mem : t -> Addr.t -> bool
(** [mem p a] — does [a] fall inside [p]? *)

(* test-hook: test/test_tango.ml *)
val subsumes : t -> t -> bool
(** [subsumes p q] — is [q] (as a set of addresses) contained in [p]?
    The oracle that checks the addressing plan's prefixes lie inside
    its block. *)

(* test-hook: test/test_tango.ml *)
val overlaps : t -> t -> bool
(** Whether [p] and [q] share an address: the oracle that checks the
    addressing plan's prefixes are disjoint. *)

val subnet : t -> int -> int -> t
(** [subnet p extra i] is the [i]-th subdivision of [p] into prefixes of
    length [length p + extra]. Used to carve per-route /48s out of an
    institution's IPv6 block. Raises {!Err.Invalid} when [i] is out of
    range or the resulting length is illegal. *)

val nth_address : t -> int64 -> Addr.t
(** [nth_address p i] is the [i]-th host address within [p]; [i] is not
    range-checked beyond being non-negative. *)
