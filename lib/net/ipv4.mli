(** IPv4 addresses as opaque 32-bit values. *)

type t

val compare : t -> t -> int
val equal : t -> t -> bool

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_string : string -> (t, string) result
(** Parse dotted-quad notation. *)

val to_string : t -> string

val add : t -> int -> t
(** [add t n] offsets the address by [n] (mod 2^32). *)
