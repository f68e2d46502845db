(** A Tango point of presence: the border switch plus its local server,
    as deployed at each edge network (§3–4).

    A PoP owns, per discovered outbound path, a tunnel whose remote
    endpoint lies in the peer's per-path prefix; its data-plane programs
    stamp, number and encapsulate outgoing packets and, on the inbound
    side, decapsulate, measure one-way delay, track loss/reordering and
    deliver to the host. Inbound per-path statistics are periodically
    reported back to the peer (the cooperative feedback loop), where they
    drive that peer's {!Policy} for traffic selection. *)

type t

val create :
  node:int ->
  fabric:Tango_dataplane.Fabric.t ->
  ?clock_offset_ns:int64 ->
  ?readmit_backoff_s:float ->
  plan:Addressing.plan ->
  remote_plan:Addressing.plan ->
  outbound_paths:Discovery.path list ->
  policy:Policy.spec ->
  unit ->
  t
(** [outbound_paths] are the discovery results for the direction
    this PoP → peer (i.e. discovery run with the {e peer} as origin).

    Each inbound path's OWD is smoothed by an EWMA with weight 0.1
    per sample. Its samples are pushed once onto the path's
    {!Tango_telemetry.Rolling.ring}, which its 1 s jitter window
    ({!Tango_telemetry.Jitter.of_ring}) and its route-change detector
    ({!Tango_telemetry.Detect.of_ring}) share.

    The path-selection policy is fully re-evaluated at most once per
    0.01 s of virtual time (one probe interval): within a refresh
    interval, packets take the per-flow decision cache instead — one
    int-keyed lookup, no stats rebase, no policy scan. When a
    re-evaluation flips the preferred path the cache is invalidated in
    O(1) and every flow migrates on its next packet.

    [readmit_backoff_s] enables the policy's exponential flap damping
    (see {!Policy.create}); default off. *)

val wire : a:t -> b:t -> unit
(** Connect two PoPs so each delivers the other's packets. Must be called
    once before any traffic. *)

val node : t -> int
val engine_of : t -> Tango_sim.Engine.t
val path_count : t -> int
val path_label : t -> int -> string

(** {1 Traffic} *)

val send_app : t -> ?payload_bytes:int -> ?final_dst:Tango_net.Addr.t -> unit -> int
(** Send one application packet to the peer's host; returns the path id
    the policy selected. [final_dst] overrides the inner destination
    (used by the overlay to address a host {e beyond} the peer, which
    then relays). *)

(** {1 Overlay (Tango-of-N) hooks} *)

val set_transit_handler : t -> (now:float -> Tango_net.Packet.t -> unit) -> unit
(** Receive decapsulated packets whose inner destination lies outside
    this site's host prefix — the relaying case. Without a handler such
    packets fall through to normal host delivery. *)

val forward_transit : t -> Tango_net.Packet.t -> unit
(** Re-encapsulate a relayed packet onto this PoP's current best path
    toward {e its} peer, preserving packet identity and creation time. *)

val transited : t -> int
(** Packets relayed through this PoP. *)

val set_probe_suppression : t -> bool -> unit
(** Starve (or resume) the probe train without unscheduling it — the
    {!Tango_faults} probe-starvation fault. While suppressed, the peer's
    inbound statistics age out and its policy must detect this PoP's
    paths as dead by staleness alone. *)

(* test-hook: test/test_faults.ml *)
val probes_suppressed : t -> bool
(** Whether the probe train is starved: part of the state the fault
    tests compare against a fault-free twin. *)

val start :
  t ->
  ?probe_interval_s:float ->
  ?report_interval_s:float ->
  ?dead_after_probes:int ->
  until_s:float ->
  unit ->
  unit
(** Schedule periodic probing (default 10 ms, as in §5) and peer
    reporting (default 100 ms) until [until_s].

    [dead_after_probes] arms probe-timeout dead-path detection: the
    policy's staleness bound becomes that many probe intervals, so a
    path whose measurements stop refreshing is declared dead after
    missing that many consecutive probes. Omitted, the policy keeps its
    default 1 s bound. Raises [Invalid_argument] on a non-positive
    count. *)

(** {1 Transport hooks}

    Reliable streams ({!Stream}) ride a dedicated port so their segments
    and ACKs do not pollute the app-latency metrics. *)

val set_stream_handler : t -> (now:float -> Tango_net.Packet.t -> unit) -> unit
(** Install the receiver for stream-port packets (at most one). *)

val send_stream :
  t ->
  ?payload_bytes:int ->
  route:[ `Policy | `Path of int ] ->
  content:Tango_net.Packet.content ->
  unit ->
  int
(** Send one transport segment toward the peer; returns the path used.
    [`Policy] consults the live path-selection policy, [`Path p] pins a
    tunnel. *)

(** {1 Control plane (lib/ctrl hooks)}

    The reconciler swaps re-discovered path tables in atomically, and
    the pair control channel rides a dedicated in-band port. *)

val install_outbound_paths : t -> Discovery.path list -> unit
(** Replace the outbound path table with a new generation: tunnels and
    labels are rebuilt, peer-reported stats are kept for retained
    indices (new paths start unmeasured), the per-flow decision cache is
    invalidated and {!table_epoch} is bumped — from the data plane's
    view the swap is atomic. Paths must be indexed densely from 0 in
    list order. Raises [Invalid_argument] on an empty, oversized or
    mis-indexed table. *)

val table_epoch : t -> int
(** Generation stamp of the installed path table; 0 at creation,
    incremented by every {!install_outbound_paths}. *)

val set_ctrl_handler : t -> (now:float -> Tango_net.Packet.t -> unit) -> unit
(** Install the receiver for control-channel packets (at most one). *)

val send_ctrl : t -> ?path:int -> content:Tango_net.Packet.content -> unit -> int
(** Send one control packet toward the peer over the path the live
    policy currently prefers (in-band: control fate-shares with data
    and fails over with it); returns the path used. [path] pins a
    tunnel instead — the channel's peer-loss probing rotates over every
    tunnel this way, so any live tunnel can carry the recovery. Raises
    [Invalid_argument] if the PoP has no tunnels. *)

val set_pinned : t -> bool -> unit
(** Freeze (or release) the path-selection refresh: while pinned, the
    current preference is held and no policy re-evaluation runs — the
    unilateral mode entered on peer loss, when stat reports have stopped
    and staleness would drive the adaptive policy blind. Unpinning
    forces a re-evaluation on the next packet. *)

(* test-hook: test/test_reconcile.ml *)
val pinned : t -> bool
(** Whether the refresh is frozen: the probe that shows the reconciler
    entering and leaving unilateral mode. *)

(** {1 Measurements} *)

val inbound_owd_series : t -> path:int -> Tango_telemetry.Series.t
(** One-way delays measured here, per inbound path id (offset-shifted by
    the clock skew, like the paper's). *)

val inbound_jitter_ms : t -> path:int -> float
(** Mean 1-s rolling stddev of the inbound OWD stream. *)

val outbound_stats : t -> Policy.path_stats array
(** Latest per-path stats reported by the peer — what the policy sees. *)

val detector_events : t -> path:int -> Tango_telemetry.Detect.event list
(** Route-change / spike events detected on an inbound path. *)


(** {1 Application-level metrics} *)

val app_latency_series : t -> Tango_telemetry.Series.t
(** True end-to-end latency (virtual time, clock-skew-free) of app
    packets received here. *)

val app_inorder_extra : t -> Tango_sim.Stats.t
(** Head-of-line blocking penalty under in-order delivery, seconds. *)

val chosen_path_series : t -> Tango_telemetry.Series.t
(** Path id chosen for each outgoing app packet over time. *)

val plan : t -> Addressing.plan
val remote_plan : t -> Addressing.plan

(* test-hook: test/test_faults.ml *)
val clock : t -> Tango_dataplane.Clock.t
(** The receive clock, whose reading the fault tests compare against a
    fault-free twin. *)

val step_clock : t -> step_ns:int64 -> unit
(** Apply an NTP-style step to this PoP's receive clock mid-run (the
    {!Tango_faults} clock fault). Relative OWD comparison across paths
    is supposed to survive it — every inbound path shifts equally. *)

val policy : t -> Policy.t

val policy_degraded : t -> bool
(** Whether the path-selection policy is in its all-paths-degraded
    pinned mode (see {!Policy.degraded}). *)

val policy_switches : t -> int

val policy_evaluations : t -> int
(** Full policy evaluations actually run — with the decision cache this
    is bounded by elapsed virtual time / 0.01 s, not by the packet
    count. *)

val path_cache_hits : t -> int
val path_cache_misses : t -> int

val app_received : t -> int
