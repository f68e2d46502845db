(** Simulated packets.

    A packet carries its original (inner) 5-tuple, an optional Tango
    tunnel encapsulation, and bookkeeping used by the simulator: creation
    time and a unique id. *)

type tango_header = {
  timestamp_ns : int64;  (** Sender switch clock at encap time. *)
  seq : int64;  (** Per-tunnel sequence number (loss/reorder detection). *)
  path_id : int;  (** Index of the discovered wide-area path used. *)
  flags : int;  (** Reserved; carried through verbatim. *)
}

type encap = {
  outer_src : Addr.t;
  outer_dst : Addr.t;  (** Tunnel endpoint — selects the wide-area path. *)
  udp_src : int;  (** Fixed per tunnel so ECMP cannot spray the flow. *)
  udp_dst : int;
  tango : tango_header;
}

type content = ..
(** Extensible application payloads (e.g. Tango's peer telemetry
    reports); the simulator forwards them opaquely. *)

type t = {
  id : int;
  flow : Flow.t;  (** Inner (host-to-host) 5-tuple. *)
  payload_bytes : int;
  created_at : float;  (** Virtual time at creation. *)
  content : content option;
  mutable encap : encap option;
}

val create :
  id:int ->
  flow:Flow.t ->
  payload_bytes:int ->
  ?content:content ->
  created_at:float ->
  unit ->
  t

val encapsulate : t -> encap -> unit
(** Raises {!Err.Invalid} if the packet is already encapsulated —
    Tango never nests tunnels between a single pair of PoPs. *)

val decapsulate : t -> encap
(** Remove and return the encapsulation; raises {!Err.Invalid} when
    there is none. *)

val is_encapsulated : t -> bool

val forwarding_hash : salt:int -> t -> int
(** [Flow.hash_5tuple ~salt] of the 5-tuple the core sees — the outer
    UDP flow when encapsulated, otherwise the inner flow — without
    building the outer flow record: what ECMP hashes at every
    multi-lane hop. *)

val forwarding_dst : t -> Addr.t
(** Destination address the core routes on — the outer destination
    when encapsulated, otherwise the inner one — without materializing the flow record (the batched fast path resolves
    routes by destination only, so it never needs the full 5-tuple). *)

val wire_size : t -> int
(** Payload plus all header bytes currently on the packet. *)

val tunnel_wire_size : payload_bytes:int -> int
(** {!wire_size} of an encapsulated packet carrying [payload_bytes]:
    the payload, the inner IPv6 header, and the outer IPv6, UDP and
    Tango headers. *)
