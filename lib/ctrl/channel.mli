(** The in-band pair control channel: heartbeats riding the pair's own
    tunnels (DESIGN.md §10).

    Each endpoint sends a heartbeat every 0.1 s on the path its live
    policy currently prefers — control fate-shares with data and fails
    over with it. A heartbeat carries nothing but its arrival: the
    channel tells liveness, not table state. What a partition may have
    hidden is left to the [on_recover] hook, which the reconciler uses
    to re-check both directions of the pair unconditionally.

    An endpoint that has heard nothing for 0.5 s declares peer loss: its PoP is pinned ({!Tango.Pop.set_pinned}) into
    unilateral mode — with the peer gone, stat reports have stopped too,
    and the adaptive policy would be driven purely by staleness noise.
    While lost, heartbeats rotate across {e every} tunnel, so one live
    tunnel in either direction is enough to re-establish contact. The
    first heartbeat that gets through ends the episode: the PoP is
    unpinned and the [on_recover] hook (the reconciler's re-sync
    trigger) fires. *)

type Tango_net.Packet.content += Heartbeat

type t

val attach :
  engine:Tango_sim.Engine.t ->
  pop_a:Tango.Pop.t ->
  pop_b:Tango.Pop.t ->
  ?until_s:float ->
  unit ->
  t
(** Install ctrl-port handlers on both PoPs and schedule the heartbeat
    tick (every 0.1 s; the peer timeout is 0.5 s). *)

val set_on_recover : t -> (Tango.Pop.t -> unit) -> unit
(** Hook invoked (with the local PoP) when a lost peer is heard again —
    the reconciler re-syncs on it. *)

(** {1 Per-endpoint state} (all raise [Invalid_argument] for a PoP that
    is not an endpoint of this channel) *)

val peer_alive : t -> Tango.Pop.t -> bool
val heartbeats_sent : t -> Tango.Pop.t -> int
val heartbeats_received : t -> Tango.Pop.t -> int

val losses : t -> Tango.Pop.t -> int
(** Peer-loss episodes this endpoint entered. *)

val recoveries : t -> Tango.Pop.t -> int
