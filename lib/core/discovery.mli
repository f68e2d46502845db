(** The paper's iterative path-discovery algorithm (§4.1, step 2).

    From the destination site, announce a probe prefix; at the source
    site, observe the best AS path BGP delivers; attach a community
    suppressing the provider's export to the transit adjacent to the
    origin; wait for reconvergence; repeat until the prefix becomes
    unreachable. Each iteration exposes one more of the wide-area paths
    the core was already holding. *)

type mechanism =
  [ `Communities  (** Provider action communities (the paper's §4). *)
  | `Poisoning
    (** AS-path poisoning (§3/§6): the origin inserts the transit's ASN
        before itself so that transit drops the route by loop detection.
        Needs no provider support at all, but lengthens the announced
        path and knocks the poisoned AS out for {e every} route to the
        prefix. *) ]

type path = {
  index : int;  (** Discovery order = the provider's preference order. *)
  communities : Tango_bgp.Community.Set.t;
      (** Suppression set that exposes this path (empty under
          [`Poisoning]). *)
  poisons : int list;
      (** ASNs poisoned to expose this path (empty under
          [`Communities]). *)
  as_path : Tango_bgp.As_path.t;  (** As observed at the source site. *)
  transits : int list;
      (** ASNs between the two provider sites, e.g. [[2914; 174]] for the
          paper's "NTT and Cogent" path. *)
  label : string;  (** Human name from the distinguishing transit. *)
  floor_owd_ms : float;
      (** Sum of link propagation delays along the observer→origin
          forwarding path at discovery time — the static one-way-delay
          floor of this path ([infinity] if it could not be resolved). *)
}

type result = {
  paths : path list;
  iterations : int;  (** BGP reconvergence rounds used (= paths + 1). *)
  convergence_time_s : float;  (** Total virtual time spent converging. *)
  messages : int;  (** BGP updates exchanged during discovery. *)
}

val run :
  net:Tango_bgp.Network.t ->
  origin:int ->
  observer:int ->
  probe_prefix:Tango_net.Prefix.t ->
  ?mechanism:mechanism ->
  ?max_paths:int ->
  unit ->
  result
(** Discover the paths from [observer] toward [origin] (announcements
    flow origin→observer; data will flow observer→origin over them —
    and symmetrically, the same paths carry origin-bound traffic of the
    origin's own prefixes). The probe prefix is withdrawn before
    returning. [max_paths] (default 16) bounds the loop. Labels come
    from {!Tango_topo.Vultr.transit_name}. Exploration starts from an
    empty suppression set and has no message budget; the reconciler
    ([Tango_ctrl.Reconcile]) runs its own budgeted epochs over the
    per-iteration steps below. *)

(** {1 Per-iteration steps}

    [run] composed from its parts, for callers that must interleave
    exploration with a live simulation ({!Tango_ctrl}): announce, let
    the network settle on the engine, observe, grow the suppression
    set, repeat. These never call [Network.converge]. *)

val announce_step :
  net:Tango_bgp.Network.t ->
  origin:int ->
  probe_prefix:Tango_net.Prefix.t ->
  mechanism:mechanism ->
  suppressed:int list ->
  unit ->
  unit
(** (Re-)announce the probe prefix with the suppression set rendered as
    communities or poisons per [mechanism]. Propagation is scheduled on
    the engine; the caller decides how long to let it settle. *)

val observe_step :
  net:Tango_bgp.Network.t ->
  origin:int ->
  observer:int ->
  probe_prefix:Tango_net.Prefix.t ->
  ?mechanism:mechanism ->
  suppressed:int list ->
  index:int ->
  unit ->
  path option
(** Read the observer's current best path for the probe prefix and
    build the [path] record for iteration [index], labelled by
    {!Tango_topo.Vultr.transit_name}; [None] when the prefix is
    unreachable at the observer. *)

val next_suppression :
  mechanism:mechanism -> suppressed:int list -> path -> int list option
(** The suppression set for the next iteration after observing [path],
    or [None] when exploration is exhausted (no knob left, or the knob
    is already suppressed). *)

val suppression_of : mechanism:mechanism -> path list -> int list
(** Replay {!next_suppression} over an ordered, trusted path list: the
    suppression set a discovery run holds after finding exactly those
    paths. *)
