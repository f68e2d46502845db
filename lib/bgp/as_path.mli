(** AS paths: the sequence of ASNs a route has traversed, most recently
    prepended AS first (so the origin AS is last). *)

type t

val empty : t
(** Path of a locally originated route before any export. *)

val of_list : int list -> t
val to_list : t -> int list

val length : t -> int
(** Number of hops, counting repeated (prepended) ASNs individually —
    this is the length BGP's decision process compares. *)

val prepend_n : t -> int -> int -> t
(** [prepend_n t asn n] prepends [asn] [n] times. *)

val contains : t -> int -> bool
val origin_as : t -> int option
(** Last (oldest) ASN. *)

val neighbor_of_origin : t -> int option
(** The ASN adjacent to the origin — for Tango discovery, the provider's
    neighbor that must be suppressed next. [None] for paths with fewer
    than two distinct positions. *)

val strip_private : t -> t
(** Remove private ASNs (64512–65534, and 4200000000+ which cannot occur
    in our 16-bit world) — what Vultr does to its customers' private
    session ASNs. *)

val equal : t -> t -> bool
val to_string : t -> string
