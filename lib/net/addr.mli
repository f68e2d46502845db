(** IP addresses. Every deployment, tunnel and workload in this
    reproduction is IPv6, so an address is an {!Ipv6.t}; textual IPv4
    is rejected. *)

type t = Ipv6.t

val compare : t -> t -> int
(** Numeric order. *)

val equal : t -> t -> bool

val of_string : string -> (t, string) result
(** Parse IPv6 text; anything else, IPv4 dotted quads included, is an
    [Error]. *)

val of_string_exn : string -> t
val to_string : t -> string
