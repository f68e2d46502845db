(* Tests for the AS-topology substrate. *)

open Tango_topo

(* ------------------------------------------------------------------ *)
(* Relationship                                                        *)

let test_rel_inverse () =
  Alcotest.(check bool) "customer<->provider" true
    (Relationship.equal (Relationship.inverse Relationship.Customer) Relationship.Provider);
  Alcotest.(check bool) "peer self-inverse" true
    (Relationship.equal (Relationship.inverse Relationship.Peer) Relationship.Peer)

let role = function
  | Relationship.Customer -> "customer"
  | Relationship.Provider -> "provider"
  | Relationship.Peer -> "peer"

let test_rel_export_rules () =
  let check lf et expect =
    Alcotest.(check bool)
      (Printf.sprintf "%s->%s" (role lf) (role et))
      expect
      (Relationship.export_allowed ~learned_from:lf ~exporting_to:et)
  in
  let open Relationship in
  (* Customer routes go everywhere. *)
  check Customer Customer true;
  check Customer Peer true;
  check Customer Provider true;
  (* Peer/provider routes go to customers only. *)
  check Peer Customer true;
  check Peer Peer false;
  check Peer Provider false;
  check Provider Customer true;
  check Provider Peer false;
  check Provider Provider false

let test_rel_local_pref () =
  Alcotest.(check bool) "customer > peer > provider" true
    (Relationship.base_local_pref Relationship.Customer
     > Relationship.base_local_pref Relationship.Peer
    && Relationship.base_local_pref Relationship.Peer
       > Relationship.base_local_pref Relationship.Provider)

(* ------------------------------------------------------------------ *)
(* Link                                                                *)

let test_link_validation () =
  Alcotest.(check bool) "negative delay" true
    (try ignore (Link.v (-1.0)); false with Invalid_argument _ -> true)

let test_link_transmission () =
  let l = Link.v ~bandwidth_mbps:1000.0 1.0 in
  (* 125000 bytes = 1 Mbit over 1 Gb/s = 1 ms. *)
  Alcotest.(check (float 1e-9)) "serialization" 1.0
    (Link.transmission_delay_ms l ~bytes:125_000)

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)

let triangle () =
  let t = Topology.create () in
  Topology.add_node t ~id:1 ~asn:100 "p";
  Topology.add_node t ~id:2 ~asn:200 "c1";
  Topology.add_node t ~id:3 ~asn:300 "c2";
  Topology.connect t ~provider:1 ~customer:2 ();
  Topology.connect t ~provider:1 ~customer:3 ();
  Topology.connect_peers t 2 3 ();
  t

let test_topology_relationships () =
  let t = triangle () in
  Alcotest.(check bool) "2 is 1's customer" true
    (Topology.relationship t 1 2 = Some Relationship.Customer);
  Alcotest.(check bool) "1 is 2's provider" true
    (Topology.relationship t 2 1 = Some Relationship.Provider);
  Alcotest.(check bool) "2-3 peers" true
    (Topology.relationship t 2 3 = Some Relationship.Peer);
  Alcotest.(check bool) "non-adjacent" true (Topology.relationship t 2 2 = None)

let test_topology_queries () =
  let t = triangle () in
  Alcotest.(check (list int)) "customers of 1" [ 2; 3 ] (Topology.customers t 1);
  Alcotest.(check (list int)) "providers of 2" [ 1 ] (Topology.providers t 2);
  Alcotest.(check string) "name" "p" (Topology.node t 1).Topology.name;
  Alcotest.(check int) "asn" 300 (Topology.asn t 3)

let test_topology_duplicates_rejected () =
  let t = triangle () in
  Alcotest.(check bool) "dup node" true
    (try Topology.add_node t ~id:1 ~asn:1 "x"; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "dup edge" true
    (try Topology.connect t ~provider:1 ~customer:2 (); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "self loop" true
    (try Topology.connect_peers t 1 1 (); false
     with Invalid_argument _ -> true)

let test_valley_free () =
  let t = Topology.create () in
  (* 1 and 2 are tier-1 peers; 3 customer of 1; 4 customer of 2;
     5 customer of both 3 and 4. *)
  List.iteri
    (fun i name -> Topology.add_node t ~id:(i + 1) ~asn:(i + 1) name)
    [ "t1a"; "t1b"; "mid-a"; "mid-b"; "stub" ];
  Topology.connect_peers t 1 2 ();
  Topology.connect t ~provider:1 ~customer:3 ();
  Topology.connect t ~provider:2 ~customer:4 ();
  Topology.connect t ~provider:3 ~customer:5 ();
  Topology.connect t ~provider:4 ~customer:5 ();
  let vf = Topology.is_valley_free t in
  Alcotest.(check bool) "up-peer-down" true (vf [ 5; 3; 1; 2; 4; 5 ]);
  Alcotest.(check bool) "up-down" true (vf [ 5; 3; 1 ]);
  Alcotest.(check bool) "down then up is a valley" false (vf [ 1; 3; 5; 4 ]);
  Alcotest.(check bool) "peer then up invalid" false (vf [ 1; 2; 4; 5; 3 ]);
  Alcotest.(check bool) "single node" true (vf [ 5 ]);
  Alcotest.(check bool) "non-adjacent path" false (vf [ 5; 1 ])

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)

let test_chain () =
  let t = Builders.chain 4 in
  Alcotest.(check (list int)) "neighbors per node" [ 1; 2; 2; 1 ]
    (List.map (fun i -> List.length (Topology.neighbors t i)) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "0 provides 1" true
    (Topology.relationship t 0 1 = Some Relationship.Customer)

let test_random_hierarchy_wellformed () =
  let t = Builders.random_hierarchy ~seed:5 ~tier1:3 ~tier2:6 ~stubs:10 in
  Alcotest.(check int) "node count" 19 (List.length (Topology.nodes t));
  (* Every stub has at least one provider; tier-1s have none. *)
  List.iter
    (fun (n : Topology.node) ->
      let providers = Topology.providers t n.Topology.id in
      if n.Topology.name.[0] = 's' then
        Alcotest.(check bool) "stub has provider" true (providers <> [])
      else if String.length n.Topology.name > 4 && String.sub n.Topology.name 0 5 = "tier1"
      then Alcotest.(check (list int)) "tier1 has no provider" [] providers)
    (Topology.nodes t)

let test_random_hierarchy_deterministic () =
  let a = Builders.random_hierarchy ~seed:9 ~tier1:2 ~tier2:4 ~stubs:6 in
  let b = Builders.random_hierarchy ~seed:9 ~tier1:2 ~tier2:4 ~stubs:6 in
  let adjacency t =
    List.map
      (fun (n : Topology.node) ->
        List.map (fun (m, _, _) -> m) (Topology.neighbors t n.Topology.id))
      (Topology.nodes t)
  in
  Alcotest.(check (list (list int))) "same adjacency" (adjacency a) (adjacency b)

(* ------------------------------------------------------------------ *)
(* Vultr scenario                                                      *)

let test_vultr_shape () =
  let t = Vultr.build () in
  Alcotest.(check int) "nine nodes" 9 (List.length (Topology.nodes t));
  (* Vultr NY buys from NTT/Telia/GTT/Cogent; LA from NTT/Telia/GTT/Level3. *)
  let sort = List.sort Int.compare in
  Alcotest.(check (list int)) "NY upstreams"
    (sort [ Vultr.ntt; Vultr.telia; Vultr.gtt; Vultr.cogent ])
    (sort (Topology.providers t Vultr.vultr_ny));
  Alcotest.(check (list int)) "LA upstreams"
    (sort [ Vultr.ntt; Vultr.telia; Vultr.gtt; Vultr.level3 ])
    (sort (Topology.providers t Vultr.vultr_la));
  (* The two Vultr sites share an ASN but are not directly connected. *)
  Alcotest.(check int) "same ASN" (Topology.asn t Vultr.vultr_la)
    (Topology.asn t Vultr.vultr_ny);
  Alcotest.(check bool) "no private WAN" true
    (Topology.relationship t Vultr.vultr_la Vultr.vultr_ny = None);
  (* Transit full mesh: 5 choose 2 = 10 peering edges. *)
  let transits = [ Vultr.ntt; Vultr.telia; Vultr.gtt; Vultr.cogent; Vultr.level3 ] in
  let peer_edges =
    List.concat_map
      (fun a ->
        List.filter
          (fun b -> a < b && Topology.relationship t a b = Some Relationship.Peer)
          transits)
      transits
  in
  Alcotest.(check int) "transit mesh" 10 (List.length peer_edges)

let test_vultr_servers_private () =
  let t = Vultr.build () in
  Alcotest.(check bool) "LA server private" true
    (Topology.node t Vultr.server_la).Topology.private_asn;
  Alcotest.(check bool) "vultr not private" false
    (Topology.node t Vultr.vultr_la).Topology.private_asn

let test_vultr_calibration () =
  let t = Vultr.build () in
  (* Sum the server-to-server link delays through each direct transit and
     compare with the paper-calibrated OWD targets. *)
  let owd via =
    let d a b =
      match Topology.link t a b with
      | Some l -> l.Link.delay_ms
      | None -> Alcotest.failf "missing link %d-%d" a b
    in
    d Vultr.server_la Vultr.vultr_la
    +. d Vultr.vultr_la via +. d via Vultr.vultr_ny
    +. d Vultr.vultr_ny Vultr.server_ny
  in
  List.iter
    (fun (via, target) ->
      Alcotest.(check (float 1e-6)) (Vultr.transit_name via) target (owd via))
    [ (Vultr.ntt, 36.4); (Vultr.telia, 31.0); (Vultr.gtt, 28.0) ];
  (* The headline ratio: default (NTT) is 30% above the best (GTT). *)
  Alcotest.(check (float 1e-3)) "30%% gap" 1.3 (owd Vultr.ntt /. owd Vultr.gtt)

let test_vultr_weights () =
  Alcotest.(check bool) "NTT > Telia > GTT > Cogent" true
    (Vultr.vultr_neighbor_weight Vultr.ntt > Vultr.vultr_neighbor_weight Vultr.telia
    && Vultr.vultr_neighbor_weight Vultr.telia > Vultr.vultr_neighbor_weight Vultr.gtt
    && Vultr.vultr_neighbor_weight Vultr.gtt > Vultr.vultr_neighbor_weight Vultr.cogent)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "tango_topo"
    [
      ( "relationship",
        [
          tc "inverse" `Quick test_rel_inverse;
          tc "export rules" `Quick test_rel_export_rules;
          tc "local pref order" `Quick test_rel_local_pref;
        ] );
      ( "link",
        [
          tc "validation" `Quick test_link_validation;
          tc "transmission delay" `Quick test_link_transmission;
        ] );
      ( "topology",
        [
          tc "relationships" `Quick test_topology_relationships;
          tc "queries" `Quick test_topology_queries;
          tc "duplicates rejected" `Quick test_topology_duplicates_rejected;
          tc "valley-free" `Quick test_valley_free;
        ] );
      ( "builders",
        [
          tc "chain" `Quick test_chain;
          tc "random well-formed" `Quick test_random_hierarchy_wellformed;
          tc "random deterministic" `Quick test_random_hierarchy_deterministic;
        ] );
      ( "vultr",
        [
          tc "shape" `Quick test_vultr_shape;
          tc "private servers" `Quick test_vultr_servers_private;
          tc "delay calibration" `Quick test_vultr_calibration;
          tc "preference weights" `Quick test_vultr_weights;
        ] );
    ]
