(** IPv6 addresses as 128-bit values: two 64-bit halves, most
    significant first. The record is private: built only through this
    module, read in place by per-packet code ({!Prefix.mem},
    {!Flow.hash_5tuple}) without a call per half.

    Parsing accepts full and "::"-compressed textual forms; printing
    follows RFC 5952 (lowercase hex, longest zero run compressed,
    leftmost run on ties, no compression of a single group). *)

type t = private { hi : int64; lo : int64 }

val compare : t -> t -> int
val equal : t -> t -> bool

val make : int64 -> int64 -> t
(** [make hi lo] from the high and low 64 bits (network order). *)

val hi : t -> int64
val lo : t -> int64

val of_string : string -> (t, string) result
val of_string_exn : string -> t
val to_string : t -> string

val add : t -> int64 -> t
(** 128-bit addition of a non-negative 64-bit offset, with carry. *)

val logand : t -> t -> t
val logor : t -> t -> t
val lognot : t -> t

val shift_left : t -> int -> t
(** [shift_left t n] for [0 <= n <= 128]. *)

val any : t
(** [::] *)
