(** "From Tango of 2 to Tango of N" (§6): treat pairwise Tango
    deployments as building blocks of a RON-like overlay, where a PoP may
    reach another via an intermediate PoP when the relayed segments
    outperform every direct wide-area path.

    The overlay plans routes over a matrix of measured per-segment
    one-way delays; relaying costs a configurable per-hop processing
    overhead (decapsulate, look up, re-encapsulate). *)

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

(** A ready-made N=3 topology for experiments: the Vultr pair plus a
    third site ("CHI") whose direct connectivity to LA is deliberately
    poor (single congested transit), so relaying through NY wins. *)
module Triangle : sig
  val server_chi : int

  val build : unit -> Tango_topo.Topology.t
  (** Extends {!Tango_topo.Vultr.build} with the third site, reached
      through EastNet (node 7018), the fast regional transit connecting
      CHI and NY. *)

  val static_owd_ms :
    Tango_bgp.Network.t -> src:int -> dst:int -> float
  (** Sum of link propagation delays along the converged BGP forwarding
      path between two server nodes' host addresses — the floor OWD a
      Tango pair would measure on the default path. [infinity] when
      unroutable. Host prefixes must have been announced already. *)

  val announce_hosts : Tango_bgp.Network.t -> unit
  (** Announce a host prefix from each of the three servers and
      converge. *)
end
