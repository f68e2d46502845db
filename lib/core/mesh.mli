(** A live Tango-of-N overlay (§6) built from pairwise Tango deployments.

    Every ordered pair of sites runs the full pairwise machinery — its
    own discovery, per-pair tunnel prefixes announced by the destination,
    a {!Pop} with tunnels, probes and peer reports — and the overlay
    layer adds RON-style relaying on top: an overlay route may traverse
    an intermediate site, whose PoP decapsulates, recognizes a foreign
    inner destination, and re-encapsulates onto its own best path toward
    the final site. End-to-end latency spans the whole overlay route
    because relayed packets keep their identity and creation time. *)

type t

val setup_triangle : ?seed:int -> unit -> t
(** Build the three-site topology of {!Overlay.Triangle} (LA, NY, CHI —
    with CHI's only direct transit to LA taking a long detour), run
    discovery for all six ordered pairs, announce per-pair tunnel
    prefixes plus one host prefix per site, and instantiate the six
    PoPs, each running [Lowest_owd] (hysteresis 1 ms, dwell 1 s). Route
    planning charges the default 0.1 ms per relay
    ({!Overlay.plan_routes}). *)

val site_name : t -> int -> string

(* test-hook: test/test_tango.ml *)
val fabric : t -> Tango_dataplane.Fabric.t
(** The shared fabric, where the tests fail a relay's link. *)

val paths : t -> src:int -> dst:int -> Discovery.path list
(** Discovery result for traffic [src] → [dst], the one {!setup_triangle}
    ran: each path with its static floor OWD. Raises [Invalid_argument]
    for unknown or equal indices, like every per-pair call here. *)

val start_measurement : t -> for_s:float -> unit -> unit
(** Start probe trains and reports on every PoP, at {!Pop.start}'s
    default intervals (10 ms probes, 100 ms reports). *)

val run_for : t -> float -> unit

val measured_owd_ms : t -> src:int -> dst:int -> float
(** Best live smoothed OWD over the pair's paths, as reported back to
    [src]; falls back to the discovery floor before measurements
    arrive. *)

val plan_routes : t -> unit
(** Recompute overlay routes for every ordered pair from the current
    measured segment delays. *)

val route : t -> src:int -> dst:int -> Overlay.route
(** Current overlay route ([Direct] until {!plan_routes} finds better). *)

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
