(** Fixed 64-slot batches of tunnel sends — the XDP-style unit of work
    of the batched dataplane (DESIGN.md §11).

    A batch is columnar, like the packet arrays an eBPF program walks:
    slot [i] of every column describes one encapsulated send — its
    tunnel endpoint, wire size, path, flow and sequence number — and
    one sender-clock stamp covers the whole batch. A slot names its
    endpoint by index into the batch's table of distinct endpoints
    ([endpoints], in first-appearance order, matched by physical
    identity), so {!Fabric.send_batch_direct} resolves each endpoint
    once per call and writes every slot's closed-form arrival time into
    the [arrival] column. Filling, forwarding and reading a batch this
    way allocates nothing, and no float or int64 crosses a module
    boundary boxed.

    {!add} takes whole packets instead: it reads a packet's forwarding
    destination, size and Tango header into the same columns and keeps
    the packet in [packets], so the fabric can hand it to a delivery
    callback or route it through the event path. Both forms go through
    the same per-slot fill, and the fabric treats their slots alike.

    The columns are readable fields; only this module and the fabric
    write them. *)

type t = private {
  dst : int array;
      (** Tunnel endpoint: the slot's index into [endpoints]. *)
  endpoints : Tango_net.Addr.t array;
      (** The batch's distinct endpoints — the outer destinations the
          fabric routes on — in first-appearance order; entries
          [0, endpoint_count) are live. An endpoint equal to a live one
          but not the same value in memory gets an entry of its own. *)
  mutable endpoint_count : int;
  bytes : int array;  (** Wire size, every header included. *)
  path : int array;  (** Path id of the Tango header; -1 without one. *)
  flow : int array;  (** The caller's flow index; {!add} stores the packet id. *)
  seq : int array;  (** Tunnel sequence number; -1 without a Tango header. *)
  arrival : float array;
      (** Virtual arrival time, written by {!Fabric.send_batch_direct};
          [nan] for a slot the direct path could not carry. *)
  packets : Tango_net.Packet.t array;
      (** The packet {!add} put in the slot; {!no_packet} for a slot
          {!encap} filled. *)
  mutable stamp_ns : int;
      (** Sender clock at encap, shared by every slot {!encap} fills. *)
  mutable len : int;
}

val capacity : int
(** 64 — fixed, like the kernel's NAPI budget. *)

val no_packet : Tango_net.Packet.t
(** Placeholder in the [packets] column of slots that hold no packet. *)

val create : unit -> t
(** All columns are allocated here, at full size. *)

val length : t -> int
val is_empty : t -> bool

val set_stamp_ns : t -> int -> unit
(** Set the sender-clock timestamp (ns) of the sends {!encap} fills: a
    lane encapsulates a batch within one virtual instant. *)

val encap : t -> dst:Tango_net.Addr.t -> bytes:int -> path:int -> flow:int -> seq:int -> unit
(** Append one encapsulated send. Allocates nothing. Raises
    {!Err.Invalid} when full — callers flush at {!capacity}. *)

val add : t -> Tango_net.Packet.t -> unit
(** Append a packet: its {!Tango_net.Packet.forwarding_dst},
    {!Tango_net.Packet.wire_size}, id and Tango header (path and
    sequence, -1 for a packet with no tunnel header) go into the
    columns, the packet into [packets]. Raises {!Err.Invalid} when
    full. *)

val clear : t -> unit
(** Reset the length and the endpoint table (slots keep their last
    packet and endpoint references until overwritten — at most one
    stale batch of them stays reachable). *)

val purge : t -> unit
(** {!clear}, plus drop the stale packet and endpoint references, so
    nothing the batch held stays reachable through it. *)
