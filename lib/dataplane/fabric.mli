(** The wide-area packet fabric: hop-by-hop data-plane forwarding driven
    by the converged BGP tables.

    Each hop is resolved {e on arrival} at a node (so in-flight BGP
    changes affect packets mid-path, as in reality), through
    {!next_hop}: a node's forwarding-table lookup for a destination is
    memoized until {!Tango_bgp.Network.revision} next moves, so a hop
    still sees a BGP change that lands while the packet is in flight.
    Per-hop latency is
    the link's propagation delay, plus Gaussian link jitter, plus the
    receiving transit's ECMP-lane offset for the packet's forwarding
    5-tuple, plus a caller-supplied dynamic component on the links that
    have one — the hook the workload layer uses to inject diurnal
    drift, route-change level shifts and instability spikes per
    transit network. *)

type t

val create :
  ?seed:int ->
  ?lanes_of:(int -> Ecmp.lanes) ->
  ?extra_delay_ms:(from_node:int -> to_node:int -> (time_s:float -> float) option) ->
  Tango_bgp.Network.t ->
  t
(** The fabric shares the BGP network's topology and engine. Defaults: a
    single zero-offset lane everywhere and no dynamic delay. Links have
    unbounded parallel capacity (delay-only model). Per-link state is
    sized by the topology's node count at creation, and every directed
    link is snapshotted then, so neither the node set nor the links may
    change afterwards.

    [extra_delay_ms] resolves each link's dynamic delay: it is called
    once per existing directed link here, at creation, and a link it
    gives [Some f] adds [f ~time_s] milliseconds to every hop that
    crosses it, [time_s] being the hop's send time; a hop on any other
    link reads one flag and adds nothing. Either hook takes the fabric
    off the direct path ({!send_batch_direct}). *)

val network : t -> Tango_bgp.Network.t

(* test-hook: test/test_dataplane.ml *)
val link : t -> from_node:int -> to_node:int -> Tango_topo.Link.t option
(** The directed link the forwarding loop uses between two nodes: the
    snapshot of {!Tango_topo.Topology.link} taken at creation, which the
    tests hold to the topology's. Raises {!Err.Invalid} for an id that
    is not a node of the topology. *)

val next_hop : t -> node:int -> Tango_net.Addr.t -> int
(** The forwarding step {!send} takes at each hop and the direct path's
    route walk takes at each node: where a packet at [node] bound for
    the address goes next — a node id, [-1] to deliver it at [node]
    (a local route, or one learned from no neighbor), [-2] when [node]
    has no route. It is the longest-prefix match of
    {!Tango_bgp.Network.route_for_addr}, read once per (node,
    destination) pair per control-plane revision and then from the
    node's memo row: {!Tango_bgp.Network.revision} moving flushes the
    memo together with the direct path's route cache. A row holds 16
    destinations, matched by physical identity first and by value
    second; a destination past a full row is looked up in the table
    every time. Allocates nothing. Raises [Invalid_argument] for an id
    that is not a node. *)

val send :
  t ->
  from_node:int ->
  ?on_dropped:(reason:string -> Tango_net.Packet.t -> unit) ->
  on_delivered:(node:int -> Tango_net.Packet.t -> unit) ->
  Tango_net.Packet.t ->
  unit
(** Inject a packet at [from_node]; it is forwarded toward the
    destination of its {!Tango_net.Packet.forwarding_dst}. Exactly one
    of the callbacks eventually fires (drop reasons: ["unroutable"],
    ["ttl"], ["link-failure"] for a {!fail_link} blackhole and
    ["fault-loss"] for a {!set_link_fault} brownout). *)

val send_batch_direct :
  t ->
  from_node:int ->
  now_s:float ->
  ?on_delivered_at:(node:int -> at_s:float -> Tango_net.Packet.t -> unit) ->
  Batch.t ->
  unit
(** Inject every slot of a batch at [from_node], in batch order — the
    multicore lane path: synchronous, engine-free and registry-free,
    safe to call from a non-main domain. The direct path applies when
    the fabric carries no faults and no custom hooks, {e and} the
    slot's route is "plain" (zero jitter on every link, none failed).
    Plain routes are resolved once per (from, dst) pair — a FIB
    snapshot validated against {!Tango_bgp.Network.revision} — and a
    call looks up each of the batch's distinct endpoints
    ({!Batch.t}[.endpoints]) once, failed-link check included, before
    its first slot: the fabric's state is read once per call. Each
    slot routed on a plain route gets its closed-form virtual arrival time
    (measured from the caller-supplied virtual send time [now_s])
    written into the batch's [arrival] column; the caller reorders by
    arrival (see {!Tango_sim.Shard}). Without [on_delivered_at] a batch
    of {!Batch.encap} slots crosses the fabric without allocating.
    [on_delivered_at], when given, is called per directly delivered
    slot with the delivering node, the arrival time and the slot's
    packet. No process-wide metric or trace is touched — per-fabric
    counts accumulate locally and are published by {!quiesce_metrics}.

    A slot that cannot take the direct path counts in
    {!direct_fallbacks} and its arrival reads [nan]. A packet slot falls
    back to {!send} (which does touch the registry and the engine; its
    delivery calls [on_delivered_at] with the engine's clock, and a
    dropped fallback packet is only counted); an encap slot has no
    packet, so it is not delivered at all. Lane code must keep
    {!direct_fallbacks} at zero, and the throughput pipeline asserts
    that. *)

val route_plain : t -> from_node:int -> dst:Tango_net.Addr.t -> bool
(** Whether {!send_batch_direct} from [from_node] to [dst] would take
    the direct path right now — fabric eligible, route resolvable,
    every link jitter-free and healthy. Setup-time probe for
    lane pipelines that require [direct_fallbacks] to stay zero. *)

val direct_fallbacks : t -> int
(** Packets {!send_batch_direct} had to route through the canonical
    {!send}. *)

val quiesce_metrics : t -> unit
(** Publish the direct-path packet counts into the process-wide metric
    registry. Idempotent (publishes deltas since the last call). Only
    call at quiesce points — after every lane domain using this fabric
    has been joined. *)

val fail_link : t -> from_node:int -> to_node:int -> unit
(** Silently blackhole a directed link: packets crossing it are dropped
    with reason ["link-failure"], while BGP remains oblivious — the
    gray-failure scenario that motivates data-driven failover (the paper
    cites Blink-style recovery as the kind of technique Tango enables).
    Idempotent. Link state lives in flat arrays of [n * n] entries over
    the positions of the topology's [n] nodes; raises {!Err.Invalid} for
    an id that is not a node of the topology. *)

val heal_link : t -> from_node:int -> to_node:int -> unit
(** Undo {!fail_link}. Idempotent; raises like {!fail_link}. *)

val set_link_fault :
  t ->
  from_node:int ->
  to_node:int ->
  ?loss:float ->
  ?extra_delay_ms:(time_s:float -> float) ->
  unit ->
  unit
(** Attach a dynamic fault to a directed link (the brownout hook of
    {!Tango_faults}): packets crossing it are additionally dropped with
    probability [loss] (reason ["fault-loss"]) and delayed by
    [extra_delay_ms ~time_s] milliseconds. Replaces any previous fault on
    the link. The per-packet cost with no faults anywhere is a single
    counter load and branch. Raises {!Err.Invalid} when [loss] is outside
    [0,1] or an id is not a node of the topology. *)

val clear_link_fault : t -> from_node:int -> to_node:int -> unit
(** Remove the fault on one directed link. Idempotent. *)

(* test-hook: test/test_dataplane.ml *)
val fault_count : t -> int
(** Number of directed links currently carrying a fault: the probe the
    fault tests read to see a fault installed, rejected or cleared. *)

val link_fault_extra_ms :
  t -> from_node:int -> to_node:int -> time_s:float -> float
(** The extra fault delay a packet crossing the link at [time_s] would
    incur — the exact check the forwarding fast path performs, exposed
    for tests and the microbenchmarks. *)

val sent : t -> int
val delivered : t -> int
val dropped : t -> int
