(** CIDR prefixes over {!Addr.t}, used both as destination aggregates and —
    Tango's reinterpretation — as names for wide-area routes.

    A prefix is stored in canonical form: host bits are zeroed at
    construction time, so structural equality matches semantic equality. *)

type t

val v : Addr.t -> int -> t
(** [v addr len] canonicalizes [addr] to [len] bits. Raises
    {!Err.Invalid} if [len] is outside the family's range. *)

val addr : t -> Addr.t
(** Canonical (masked) network address. *)

val length : t -> int
(** Prefix length in bits. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val of_string : string -> (t, string) result
(** Parse ["addr/len"]. *)

val of_string_exn : string -> t
val to_string : t -> string

val mem : t -> Addr.t -> bool
(** [mem p a] — does [a] fall inside [p]? Always false across families. *)

val subsumes : t -> t -> bool
(** [subsumes p q] — is [q] (as a set of addresses) contained in [p]? *)

val overlaps : t -> t -> bool

val subnet : t -> int -> int -> t
(** [subnet p extra i] is the [i]-th subdivision of [p] into prefixes of
    length [length p + extra]. Used to carve per-route /48s out of an
    institution's IPv6 block. Raises {!Err.Invalid} when [i] is out of
    range or the resulting length is illegal. *)

val nth_address : t -> int64 -> Addr.t
(** [nth_address p i] is the [i]-th host address within [p]; [i] is not
    range-checked beyond being non-negative. *)
