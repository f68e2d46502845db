(** SipHash-2-4 (Aumasson–Bernstein): a fast keyed pseudorandom function
    producing 64-bit tags.

    Used to authenticate the Tango measurement shim against on-path
    attackers who would otherwise inject or rewrite timestamps to skew
    the path statistics (§6, "wide-area, efficient & trustworthy
    telemetry"). SipHash is small enough for a switch data plane and
    needs only a 128-bit shared key between the two cooperating edges. *)

type key
(** 128-bit secret key. *)

val key : int64 -> int64 -> key
(** [key k0 k1] from two little-endian 64-bit halves. *)

val key_of_string : string -> key
(** From exactly 16 bytes (little-endian halves); raises
    {!Err.Invalid} otherwise. *)

val mac : key -> Bytes.t -> int64
(** SipHash-2-4 of the byte string. *)
