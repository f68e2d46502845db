(** IP addresses of either family. *)

type t = V4 of Ipv4.t | V6 of Ipv6.t

val compare : t -> t -> int
(** V4 sorts before V6; within a family, numeric order. *)

val equal : t -> t -> bool

val of_string : string -> (t, string) result
(** Tries IPv4 dotted-quad first, then IPv6. *)

val of_string_exn : string -> t
val to_string : t -> string

val family_bits : t -> int
(** 32 for V4, 128 for V6. *)
