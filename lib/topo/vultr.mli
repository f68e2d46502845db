(** The calibrated topology of the paper's deployment (§4, Fig. 3).

    Two Vultr datacenter border routers (LA and NY, both AS 20473, no
    private WAN between them), one Tango server behind each on a private
    ASN, and the five transit networks observed in the paper: NTT, Telia,
    GTT, Cogent and Level3. Vultr NY buys transit from NTT/Telia/GTT/
    Cogent; Vultr LA from NTT/Telia/GTT/Level3; the transits peer among
    themselves. Link delays are calibrated so the static one-way delays
    land on the paper's numbers: GTT 28 ms (best), Telia 31 ms, NTT
    36.4 ms (the BGP default, 30% worse than GTT), and ~33.5 ms for the
    two-transit Cogent / Level3 paths. *)

val vultr_asn : int

(* Node ids. *)
val vultr_la : int
val vultr_ny : int
val server_la : int
val server_ny : int
val ntt : int
val telia : int
val gtt : int
val cogent : int
val level3 : int

val transit_name : int -> string
(** Human name for a transit node id ("NTT", "Telia", ...). *)

val build : unit -> Topology.t
(** The nine-node world. Link delays are calibrated so the static
    server-to-server one-way delay through NTT is 36.4 ms, through Telia
    31.0 ms and through GTT 28.0 ms. *)

val vultr_neighbor_weight : int -> int
(** Vultr's per-transit preference used as a late tie-break in its route
    decision, reproducing the order the paper observed:
    NTT > Telia > GTT > (Cogent | Level3). *)
