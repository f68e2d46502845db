(** Byte-level encoding of the Tango tunnel headers.

    This is the exact layout the paper's eBPF programs prepend to data
    packets: an outer IPv6 header, a UDP header (present to pin ECMP
    hashing), and a 20-byte Tango shim carrying the sender timestamp, a
    per-tunnel sequence number, the path id and flags. The simulator works
    on structured {!Packet.t} values, but encoding/decoding is implemented
    and tested so the header format is a checked artifact, not prose. *)

type ipv6_header = {
  traffic_class : int;
  flow_label : int;
  payload_length : int;
  next_header : int;
  hop_limit : int;
  src : Ipv6.t;
  dst : Ipv6.t;
}

type udp_header = { src_port : int; dst_port : int; length : int; checksum : int }

(** {2 Cursor primitives}

    Big-endian in-place scalar codecs, exported so other wire formats
    (the {!Tango_mesh.Segment} stack, future per-hop MAC chains) reuse
    the same zero-allocation cursor discipline instead of growing their
    own byte twiddling. Each is one of the stdlib's big-endian [Bytes]
    accessors: one bounds check per field, [Invalid_argument] past
    either end, and no allocation. A setter writes the low 16 or 32
    bits of its int; [get_u32] reads an unsigned value. All are
    [\[@hot\]]-clean. *)

val set_u16 : Bytes.t -> int -> int -> unit
val get_u16 : Bytes.t -> int -> int
val set_u32 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int

(* test-hook: test/test_net.ml *)
val internet_checksum : Bytes.t -> int
(** RFC 1071 one's-complement sum over a buffer (odd lengths padded):
    the reference the RFC's worked example checks. *)

val udp_checksum :
  src:Ipv6.t -> dst:Ipv6.t -> udp:Bytes.t -> int
(** UDP checksum over the IPv6 pseudo-header plus the UDP header+payload
    bytes (with its checksum field zeroed). Never returns 0 (0xFFFF is
    substituted, per RFC 2460). The pseudo-header is folded directly
    into the running sum — no scratch buffer is materialized. *)

val max_frame_bytes : payload_bytes:int -> int
(** Size of the largest frame {!encode_tunnel_into} can emit for a
    payload of [payload_bytes] (the authenticated-shim layout) — how big
    a reusable output buffer must be. *)

val encode_tunnel :
  ?auth_key:Siphash.key ->
  outer_src:Ipv6.t ->
  outer_dst:Ipv6.t ->
  udp_src:int ->
  udp_dst:int ->
  tango:Packet.tango_header ->
  Bytes.t ->
  Bytes.t
(** [encode_tunnel ... payload] produces the full outer frame: IPv6 + UDP + Tango shim + payload, with
    a valid UDP checksum and payload lengths filled in. With [auth_key]
    the shim is the 28-byte authenticated variant and flag bit 0x0001 is
    set in the flags on the wire. Allocates exactly the returned frame;
    the zero-allocation path is {!encode_tunnel_into}. *)

val encode_tunnel_into :
  ?auth_key:Siphash.key ->
  outer_src:Ipv6.t ->
  outer_dst:Ipv6.t ->
  udp_src:int ->
  udp_dst:int ->
  tango:Packet.tango_header ->
  buf:Bytes.t ->
  Bytes.t ->
  int
(** Like {!encode_tunnel} but writes the frame into the caller-provided
    [buf] starting at offset 0 and returns the frame length — the
    per-packet fast path; a switch reuses one buffer of
    {!max_frame_bytes} for every packet and allocates nothing. Raises
    {!Err.Invalid} when [buf] is too small. Bytes of [buf] beyond
    the returned length are left untouched. Not safe under parallel
    domains (a shared 56-byte MAC scratch is reused, in the way an eBPF
    program reuses a per-CPU scratch map). *)

val decode_tunnel :
  ?auth_key:Siphash.key ->
  Bytes.t ->
  (ipv6_header * udp_header * Packet.tango_header * Bytes.t, string) result
(** Parse and validate a frame produced by {!encode_tunnel}: version
    check, length checks and UDP checksum verification; when the frame is
    authenticated, [auth_key] must be supplied and the tag must verify.
    Supplying a key also {e requires} the frame to be authenticated, so
    an on-path attacker cannot strip protection. Returns the headers and
    the inner payload. *)

val decode_tunnel_into :
  ?auth_key:Siphash.key ->
  payload:Bytes.t ->
  Bytes.t ->
  (ipv6_header * udp_header * Packet.tango_header * int, string) result
(** Like {!decode_tunnel} but copies the inner payload into the
    caller-provided [payload] buffer at offset 0 and returns its length
    — validation (including the checksum, verified in place with the
    checksum word skipped rather than over a zeroed copy) allocates no
    intermediate buffers. Errors when [payload] is too small for the
    frame's payload. *)
