(** Tango tunnels and the sender/receiver data-plane programs.

    A tunnel binds a discovered wide-area path (identified by [path_id])
    to a pair of addresses drawn from the per-path prefixes, with fixed
    UDP ports so ECMP hashing in the core cannot spray the tunnel across
    internal lanes. The [send] program is the paper's sender-side eBPF:
    stamp, number and encapsulate. The receiver side decapsulates
    ({!Tango_net.Packet.decapsulate}) and computes the one-way delay
    from the embedded timestamp with {!owd_ms}. *)

type t = {
  path_id : int;
  label : string;  (** Human name of the path, e.g. "GTT". *)
  local_endpoint : Tango_net.Addr.t;
  remote_endpoint : Tango_net.Addr.t;
  mutable next_seq : int64;
}

val create :
  path_id:int ->
  label:string ->
  local_endpoint:Tango_net.Addr.t ->
  remote_endpoint:Tango_net.Addr.t ->
  unit ->
  t
(** The tunnel's UDP ports are fixed: source [40000 + path_id]
    (distinct per tunnel), destination 4789. Raises {!Err.Invalid}
    when [path_id] does not fit in 16 bits. *)

val send : t -> clock:Clock.t -> now_s:float -> Tango_net.Packet.t -> unit
(** Sender program: encapsulate the packet on this tunnel, stamping the
    sender clock and the tunnel's next sequence number (which advances),
    with the UDP ports {!create} names.
    Raises {!Err.Invalid} if the packet is already encapsulated. *)

val owd_ms : clock:Clock.t -> now_s:float -> Tango_net.Packet.tango_header -> float
(** Receiver measurement: the (offset-shifted) one-way delay in
    milliseconds of a decapsulated shim arriving at [now_s] — the
    receiver clock minus the embedded timestamp ({!Clock.owd_ms}). *)
