(** End-to-end orchestration of a two-site Tango deployment — the
    paper's prototype (§4): Vultr LA + NY, BGP sessions to the provider,
    path discovery in both directions, per-path prefixes and tunnels, and
    the measurement plane.

    [setup_vultr] performs, in order: BGP bring-up and convergence;
    iterative discovery LA→NY and NY→LA (Fig. 3); announcement of one
    tunnel /48 per discovered path with its community set plus a host
    prefix per site; fabric construction (optionally with the Fig. 4
    dynamics); and PoP instantiation with deliberately skewed clocks —
    relative OWD comparison must survive unsynchronized clocks. *)

type t

val vultr_overrides : Tango_topo.Topology.node -> Tango_bgp.Network.overrides
(** BGP configuration of the Vultr world: the two Vultr border sites
    break ties by {!Tango_topo.Vultr.vultr_neighbor_weight}, every other
    node runs the defaults. Pass it as [~configure] to
    {!Tango_bgp.Network.create} for any topology built on
    {!Tango_topo.Vultr}. *)

(* test-hook: test/test_tango.ml *)
val setup :
  ?seed:int ->
  ?policy_a:Policy.spec ->
  ?policy_b:Policy.spec ->
  ?readmit_backoff_s:float ->
  ?extra_delay_ms:(from_node:int -> to_node:int -> time_s:float -> float) ->
  ?clock_offset_a_ns:int64 ->
  ?clock_offset_b_ns:int64 ->
  ?configure:(Tango_topo.Topology.node -> Tango_bgp.Network.overrides) ->
  ?name_a:string ->
  ?name_b:string ->
  topo:Tango_topo.Topology.t ->
  server_a:int ->
  server_b:int ->
  unit ->
  t
(** Generic two-site deployment over any topology: discovery in both
    directions between the given server nodes, per-path prefix
    announcements, tunnels and PoPs. Site A maps onto the accessors
    named [la] below and site B onto [ny] (the Vultr deployment is
    [setup_vultr], a thin wrapper). Every transit forwards on a single
    ECMP lane. Clock offsets default to 0 here. The tests run it on a
    two-ISP world of their own. *)

val setup_vultr :
  ?seed:int ->
  ?policy_la:Policy.spec ->
  ?policy_ny:Policy.spec ->
  ?readmit_backoff_s:float ->
  ?scenario:Tango_workload.Fig4.t ->
  ?clock_offset_la_ns:int64 ->
  ?clock_offset_ny_ns:int64 ->
  unit ->
  t
(** Defaults: both policies [Lowest_owd] (hysteresis 1 ms, dwell 1 s); no
    scenario dynamics; single-lane transits; clock offsets +37 ms (LA)
    and −12 ms (NY). [readmit_backoff_s] arms both policies' flap
    damping (see {!Policy.create}; default off). *)

val engine : t -> Tango_sim.Engine.t
val network : t -> Tango_bgp.Network.t
val fabric : t -> Tango_dataplane.Fabric.t

val pop_la : t -> Pop.t
val pop_ny : t -> Pop.t

val paths_to_ny : t -> Discovery.path list
(** Paths for LA→NY traffic, in provider preference order. *)

val paths_to_la : t -> Discovery.path list

val update_paths_to_ny : t -> Discovery.path list -> unit
(** Record a reconciled LA→NY path table (discovery metadata other than
    the path list is preserved). Reconciler hook — callers are expected
    to install the same table into the sending PoP via
    {!Pop.install_outbound_paths}. *)

val update_paths_to_la : t -> Discovery.path list -> unit

val start_measurement :
  t ->
  ?probe_interval_s:float ->
  ?report_interval_s:float ->
  ?dead_after_probes:int ->
  for_s:float ->
  unit ->
  unit
(** Begin the probe trains and peer reports on both PoPs, running for
    [for_s] seconds of virtual time from now (BGP bring-up and discovery
    already consumed some of the clock). [dead_after_probes] arms
    probe-timeout dead-path detection on both PoPs (see {!Pop.start}). *)

val run_for : t -> float -> unit
(** Advance the simulation by the given duration. *)

val drive :
  t ->
  ?probe_interval_s:float ->
  ?dead_after_probes:int ->
  ?payload_bytes:int ->
  from:Pop.t ->
  interval_s:float ->
  for_s:float ->
  unit ->
  int
(** The pair under application traffic: {!start_measurement} for
    [for_s] seconds, one {!Pop.send_app} from [from] every [interval_s]
    seconds over the same span (from now), then {!run_for} [for_s] plus
    a 1 s drain for the packets still in flight. Returns the number of
    app packets sent. Anything the caller schedules before the call
    (faults, a reconciler, link failures) runs inside the drive. *)
