(** "From Tango of 2 to Tango of N" (§6): treat pairwise Tango
    deployments as building blocks of a RON-like overlay, where a PoP may
    reach another via an intermediate PoP when the relayed segments
    outperform every direct wide-area path.

    The overlay plans routes over a matrix of measured per-segment
    one-way delays; relaying costs a per-hop processing overhead
    (decapsulate, look up, re-encapsulate). *)

type route =
  | Direct
  | Relay of int list  (** Intermediate PoP indices, in order. *)

type plan = {
  src : int;
  dst : int;
  route : route;
  owd_ms : float;  (** Predicted one-way delay of the chosen route. *)
  direct_ms : float;  (** Best direct delay, for comparison. *)
}

val plan_routes :
  owd_ms:(src:int -> dst:int -> float) -> sites:int -> unit -> plan list
(** Compute, for every ordered pair of the [sites] PoPs, the best route
    through at most one intermediate PoP. [owd_ms] gives the measured
    best direct delay of each segment ([infinity] when two sites have
    no direct connectivity). A relay adds 0.1 ms to the two segments'
    delays. Raises [Invalid_argument] when [sites < 2]. *)

val gain_ms : plan -> float
(** [direct_ms - owd_ms]: how much the overlay saves (0 for direct). *)

(** {1 The live triangle}

    Three pairwise deployments over one network ({!Pair.setup} with
    three sites), and relaying on top: an overlay route may traverse an
    intermediate site, whose PoP decapsulates, recognizes a foreign
    inner destination, and re-encapsulates onto its own best path toward
    the final site. End-to-end latency spans the whole overlay route
    because relayed packets keep their identity and creation time. *)

type t

val setup_triangle : ?seed:int -> unit -> t
(** Deploy Tango between the three sites of
    {!Tango_topo.Vultr.build_triangle}: LA (site 0), NY (1) and CHI (2).
    Every PoP runs {!Pair.default_policy}. Site clocks are synchronized
    (offset 0): with more than one sending and receiving switch, a
    constant offset no longer cancels when segments of different pairs
    are summed (the paper's footnote 1). Every route starts [Direct]. *)

val pair : t -> Pair.t
(** The three-site deployment: start, run and inspect it with {!Pair}. *)

val site_name : int -> string
(** The triangle's sites by index: "LA", "NY", "CHI". *)

val measured_owd_ms : t -> src:int -> dst:int -> float
(** Best live smoothed OWD over the pair's paths, as reported back to
    [src]; falls back to the discovery floor before measurements
    arrive. [infinity] once every measured path has gone stale.
    Raises [Invalid_argument] for unknown or equal indices, like every
    per-pair call here. *)

val replan : t -> unit
(** Recompute overlay routes for every ordered pair from the current
    measured segment delays ({!plan_routes}). *)

val route : t -> src:int -> dst:int -> route
(** Current overlay route ([Direct] until {!replan} finds better). *)

val send_app : t -> src:int -> dst:int -> unit -> unit
(** Send one application packet of {!Pop.send_app}'s default size
    along the current overlay route. *)

val app_received_at : t -> site:int -> int
(** Application packets delivered to hosts at a site (over all its
    PoPs). *)

val app_latency_at : t -> site:int -> Tango_sim.Stats.summary
(** End-to-end latency of app packets received at the site, merged over
    its PoPs (true virtual-time latency, relay hops included). *)

val transited_at : t -> site:int -> int
(** Packets the site relayed onward for other pairs. *)
