(** End-to-end orchestration of pairwise Tango deployments — the paper's
    prototype (§4): Vultr LA + NY, BGP sessions to the provider, path
    discovery in both directions, per-path prefixes and tunnels, and the
    measurement plane. The §6 overlay ({!Overlay}) deploys three sites
    the same way, one pairwise deployment per pair of sites.

    {!setup} performs, in order: BGP bring-up; iterative discovery for
    every ordered pair of sites (Fig. 3); announcement of one host
    prefix per site plus one tunnel /48 per discovered path with its
    community set; convergence; fabric construction (optionally with the
    Fig. 4 dynamics); and one PoP per ordered pair. The Vultr pair runs
    with deliberately skewed clocks — relative OWD comparison must
    survive unsynchronized clocks. *)

type t

type site = {
  node : int;  (** The site's Tango server. *)
  policy : Policy.spec;  (** Path selection toward every peer. *)
  clock_offset_ns : int64;  (** Skew of the site's receive clocks. *)
}

val default_policy : Policy.spec
(** [Lowest_owd] with 1 ms hysteresis and a 1 s dwell. *)

val vultr_overrides : Tango_topo.Topology.node -> Tango_bgp.Network.overrides
(** BGP configuration of the Vultr world: the Vultr border sites break
    ties by {!Tango_topo.Vultr.vultr_neighbor_weight}, every other node
    runs the defaults. Pass it as [~configure] to
    {!Tango_bgp.Network.create} for any topology built on
    {!Tango_topo.Vultr}. *)

val setup :
  ?seed:int ->
  ?readmit_backoff_s:float ->
  ?extra_delay_ms:(from_node:int -> to_node:int -> (time_s:float -> float) option) ->
  ?configure:(Tango_topo.Topology.node -> Tango_bgp.Network.overrides) ->
  topo:Tango_topo.Topology.t ->
  site array ->
  t
(** Deploy Tango between every pair of the given sites (at least two)
    over one network. Sites are numbered by their position.

    Discovery runs for each ordered pair (src, dst) in index order, so
    the PoP at src learns the paths src → dst. Site i's address slice
    ({!Addressing.carve} at index i) holds its host prefix, then one
    tunnel prefix per discovered path of each peer's traffic to i, with
    peers in index order; for two sites that is exactly
    [Addressing.carve ~site_index:i ~path_count:(paths to i)]. A site
    that would need more than 15 tunnel prefixes raises
    [Invalid_argument]. Each site announces its host prefix, then its
    tunnel prefixes with the community sets discovery recorded. Every
    transit forwards on a single ECMP lane. The fabric's seed is
    [seed + 1] (default seed 11).

    [readmit_backoff_s] arms every policy's flap damping (see
    {!Policy.create}; default off). [extra_delay_ms] is the fabric's
    per-link dynamic-delay resolver ({!Tango_dataplane.Fabric.create}). *)

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
(** The paper's pair: LA is site 0 and NY site 1 of {!Tango_topo.Vultr}.
    Defaults: both policies {!default_policy}; no scenario dynamics
    (with [scenario], each link's process is
    {!Tango_workload.Fig4.process_for}); clock offsets +37 ms (LA) and
    −12 ms (NY). *)

val engine : t -> Tango_sim.Engine.t
val network : t -> Tango_bgp.Network.t
val fabric : t -> Tango_dataplane.Fabric.t

val pop : t -> src:int -> dst:int -> Pop.t
(** The PoP at site [src] facing site [dst]. Raises [Invalid_argument]
    for unknown or equal indices, like every per-pair call here. *)

val paths : t -> src:int -> dst:int -> Discovery.path list
(** Paths for [src] → [dst] traffic, in provider preference order, each
    with its static floor OWD. *)

val plan : t -> site:int -> Addressing.plan
(** A site's whole address slice: its host prefix and every tunnel
    prefix it announced. *)

(** {1 The two-site view}

    Site 0 is LA and site 1 is NY. *)

val pop_la : t -> Pop.t
val pop_ny : t -> Pop.t

val paths_to_ny : t -> Discovery.path list
(** Paths for LA→NY traffic, in provider preference order. *)

val paths_to_la : t -> Discovery.path list

val update_paths_to_ny : t -> Discovery.path list -> unit
(** Record a reconciled LA→NY path table. Reconciler hook — callers are
    expected to install the same table into the sending PoP via
    {!Pop.install_outbound_paths}. *)

val update_paths_to_la : t -> Discovery.path list -> unit

(** {1 Running} *)

val start_measurement :
  t ->
  ?probe_interval_s:float ->
  ?report_interval_s:float ->
  ?dead_after_probes:int ->
  for_s:float ->
  unit ->
  unit
(** Begin the probe trains and peer reports on every PoP, in index
    order, running for [for_s] seconds of virtual time from now (BGP
    bring-up and discovery already consumed some of the clock).
    [dead_after_probes] arms probe-timeout dead-path detection on every
    PoP (see {!Pop.start}). *)

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
