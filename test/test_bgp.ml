(* Tests for the BGP substrate: communities, AS paths, decision process,
   speakers, and event-driven propagation — including the calibrated Vultr
   scenario that underpins the paper's Fig. 3. *)

open Tango_bgp
module Prefix = Tango_net.Prefix
module Addr = Tango_net.Addr
module Ipv6 = Tango_net.Ipv6
module Topology = Tango_topo.Topology
module Relationship = Tango_topo.Relationship
module Engine = Tango_sim.Engine

let prefix s = Prefix.of_string_exn s

(* ------------------------------------------------------------------ *)
(* Community                                                           *)

let test_community_validation () =
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Community.action_to_community (Community.No_export_to 70000));
       false
     with Invalid_argument _ -> true)

let test_community_string_roundtrip () =
  Alcotest.(check string) "print" "20473:6001" (Community.to_string (20473, 6001))

let test_community_action_roundtrip () =
  let actions =
    [
      Community.No_export_to 2914;
      Community.Export_only_to 174;
      Community.Prepend_to (1299, 2);
      Community.No_export_transit;
    ]
  in
  List.iter
    (fun a ->
      match
        Community.actions_of_set (Community.Set.singleton (Community.action_to_community a))
      with
      | [ a' ] -> Alcotest.(check bool) "roundtrip" true (a = a')
      | _ -> Alcotest.fail "action did not decode")
    actions

let test_community_ordinary_not_action () =
  Alcotest.(check bool) "plain community has no action" true
    (Community.actions_of_set (Community.Set.singleton (20473, 4000)) = [])

let test_community_actions_of_set () =
  let set =
    Community.Set.of_list
      [
        (20473, 4000);
        Community.action_to_community (Community.No_export_to 2914);
        Community.action_to_community (Community.No_export_to 1299);
      ]
  in
  Alcotest.(check int) "two actions" 2 (List.length (Community.actions_of_set set))

(* ------------------------------------------------------------------ *)
(* As_path                                                             *)

let test_as_path_basics () =
  let p = As_path.of_list [ 20473; 2914; 20473 ] in
  Alcotest.(check int) "length" 3 (As_path.length p);
  Alcotest.(check (option int)) "origin" (Some 20473) (As_path.origin_as p);
  Alcotest.(check bool) "contains" true (As_path.contains p 2914)

let test_as_path_prepend () =
  let p = As_path.prepend_n (As_path.of_list [ 1 ]) 7 3 in
  Alcotest.(check (list int)) "triple prepend" [ 7; 7; 7; 1 ] (As_path.to_list p);
  Alcotest.(check int) "length counts repeats" 4 (As_path.length p)

let test_as_path_neighbor_of_origin () =
  let check l expect =
    Alcotest.(check (option int)) (As_path.to_string (As_path.of_list l)) expect
      (As_path.neighbor_of_origin (As_path.of_list l))
  in
  check [ 2914; 20473 ] (Some 2914);
  (* Same ASN at both ends (Vultr LA observing Vultr NY's origination). *)
  check [ 20473; 2914; 174; 20473 ] (Some 174);
  (* Prepadding at the origin must be skipped. *)
  check [ 2914; 20473; 20473; 20473 ] (Some 2914);
  check [ 20473 ] None;
  check [] None

let test_as_path_strip_private () =
  let p = As_path.of_list [ 64512; 2914; 65000; 20473 ] in
  Alcotest.(check (list int)) "private removed" [ 2914; 20473 ]
    (As_path.to_list (As_path.strip_private p))

(* ------------------------------------------------------------------ *)
(* Decision                                                            *)

(* A speaker sets the neighbor weight on import, by record update. *)
let mk_route ?(lp = 100) ?(w = 0) ?(next_hop = 1) ?learned_from path =
  {
    (Route.make ~prefix:(prefix "2001:db8::/32") ~path:(As_path.of_list path) ~next_hop
       ?learned_from ~local_pref:lp ())
    with
    Route.neighbor_weight = w;
  }

(* [a] is preferred over [b]: it wins whichever of the two comes first. *)
let prefers a b =
  let best l = match Decision.best l with Some r -> r == a | None -> false in
  best [ a; b ] && best [ b; a ]

let test_decision_local_pref_first () =
  let a = mk_route ~lp:200 ~learned_from:1 [ 1; 2; 3; 4 ] in
  let b = mk_route ~lp:100 ~learned_from:2 [ 9 ] in
  Alcotest.(check bool) "higher lp wins despite longer path" true
    (prefers a b)

let test_decision_path_length_before_weight () =
  (* The documented deviation: weight is a late tie-break, after length. *)
  let short_low_weight = mk_route ~w:0 ~learned_from:1 [ 1; 2 ] in
  let long_high_weight = mk_route ~w:500 ~learned_from:2 [ 3; 4; 5 ] in
  Alcotest.(check bool) "shorter path wins" true
    (prefers short_low_weight long_high_weight)

let test_decision_weight_breaks_length_ties () =
  let a = mk_route ~w:120 ~next_hop:9 ~learned_from:9 [ 1; 2 ] in
  let b = mk_route ~w:110 ~next_hop:1 ~learned_from:1 [ 3; 4 ] in
  Alcotest.(check bool) "weight decides" true (prefers a b)

(* Every route carries MED 0, so the advertising node id breaks what
   the attributes before it leave tied. *)
let test_decision_med_and_node_tiebreak () =
  let c = mk_route ~next_hop:3 ~learned_from:3 [ 1; 2 ] in
  let d = mk_route ~next_hop:5 ~learned_from:5 [ 3; 4 ] in
  Alcotest.(check bool) "lower node id" true (prefers c d)

let test_decision_local_beats_learned () =
  let local = mk_route ~lp:100 [ ] in
  let learned = mk_route ~lp:5000 ~learned_from:2 [ 1 ] in
  Alcotest.(check bool) "local first" true (prefers local learned)

let test_decision_best_and_rank () =
  let a = mk_route ~lp:300 ~learned_from:1 ~next_hop:1 [ 1 ] in
  let b = mk_route ~lp:200 ~learned_from:2 ~next_hop:2 [ 2 ] in
  let c = mk_route ~lp:100 ~learned_from:3 ~next_hop:3 [ 3 ] in
  Alcotest.(check bool) "best" true (Decision.best [ c; a; b ] = Some a);
  Alcotest.(check bool) "rank" true (Decision.rank [ c; a; b ] = [ a; b; c ]);
  Alcotest.(check bool) "empty" true (Decision.best [] = None)

(* ------------------------------------------------------------------ *)
(* Speaker                                                             *)

let test_speaker_originate_exports_to_all () =
  let s = Speaker.create ~node_id:1 ~asn:100 () in
  Speaker.add_neighbor s ~node_id:2 ~asn:200 ~rel:Relationship.Customer ();
  Speaker.add_neighbor s ~node_id:3 ~asn:300 ~rel:Relationship.Provider ();
  let emissions = Speaker.originate s (prefix "2001:db8::/32") () in
  Alcotest.(check int) "two updates" 2 (List.length emissions);
  List.iter
    (fun { Update.update; _ } ->
      match update with
      | Update.Announce r ->
          Alcotest.(check (list int)) "own asn prepended" [ 100 ]
            (As_path.to_list r.Route.path)
      | Update.Withdraw _ -> Alcotest.fail "unexpected withdraw")
    emissions

let test_speaker_loop_rejection () =
  let s = Speaker.create ~node_id:1 ~asn:100 () in
  Speaker.add_neighbor s ~node_id:2 ~asn:200 ~rel:Relationship.Provider ();
  let wire =
    Route.make ~prefix:(prefix "2001:db8::/32")
      ~path:(As_path.of_list [ 200; 100; 300 ])
      ~next_hop:2 ()
  in
  ignore (Speaker.receive s ~from_node:2 (Update.Announce wire));
  Alcotest.(check bool) "rejected" true (Speaker.best s (prefix "2001:db8::/32") = None)

let test_speaker_allowas_in () =
  let s = Speaker.create ~node_id:1 ~asn:100 ~allowas_in:true () in
  Speaker.add_neighbor s ~node_id:2 ~asn:200 ~rel:Relationship.Provider ();
  let wire =
    Route.make ~prefix:(prefix "2001:db8::/32")
      ~path:(As_path.of_list [ 200; 100; 300 ])
      ~next_hop:2 ()
  in
  ignore (Speaker.receive s ~from_node:2 (Update.Announce wire));
  Alcotest.(check bool) "accepted" true (Speaker.best s (prefix "2001:db8::/32") <> None)

let test_speaker_gao_rexford_no_peer_transit () =
  (* A route learned from a provider must not be exported to a peer. *)
  let s = Speaker.create ~node_id:1 ~asn:100 () in
  Speaker.add_neighbor s ~node_id:2 ~asn:200 ~rel:Relationship.Provider ();
  Speaker.add_neighbor s ~node_id:3 ~asn:300 ~rel:Relationship.Peer ();
  Speaker.add_neighbor s ~node_id:4 ~asn:400 ~rel:Relationship.Customer ();
  let wire =
    Route.make ~prefix:(prefix "2001:db8::/32") ~path:(As_path.of_list [ 200 ])
      ~next_hop:2 ()
  in
  let emissions = Speaker.receive s ~from_node:2 (Update.Announce wire) in
  let targets = List.map (fun e -> e.Update.to_node) emissions in
  Alcotest.(check (list int)) "customer only" [ 4 ] targets

let test_speaker_split_horizon () =
  let s = Speaker.create ~node_id:1 ~asn:100 () in
  Speaker.add_neighbor s ~node_id:2 ~asn:200 ~rel:Relationship.Customer ();
  let wire =
    Route.make ~prefix:(prefix "2001:db8::/32") ~path:(As_path.of_list [ 200 ])
      ~next_hop:2 ()
  in
  let emissions = Speaker.receive s ~from_node:2 (Update.Announce wire) in
  Alcotest.(check bool) "never back to sender" true
    (List.for_all (fun e -> e.Update.to_node <> 2) emissions)

let test_speaker_withdraw_cascade () =
  let s = Speaker.create ~node_id:1 ~asn:100 () in
  Speaker.add_neighbor s ~node_id:2 ~asn:200 ~rel:Relationship.Customer ();
  Speaker.add_neighbor s ~node_id:3 ~asn:300 ~rel:Relationship.Customer ();
  let wire =
    Route.make ~prefix:(prefix "2001:db8::/32") ~path:(As_path.of_list [ 200 ])
      ~next_hop:2 ()
  in
  ignore (Speaker.receive s ~from_node:2 (Update.Announce wire));
  let emissions = Speaker.receive s ~from_node:2 (Update.Withdraw (prefix "2001:db8::/32")) in
  Alcotest.(check bool) "withdraw forwarded" true
    (List.exists
       (fun e -> e.Update.to_node = 3 && e.Update.update = Update.Withdraw (prefix "2001:db8::/32"))
       emissions);
  Alcotest.(check bool) "loc rib empty" true (Speaker.best s (prefix "2001:db8::/32") = None)

let test_speaker_remove_private () =
  let s =
    Speaker.create ~node_id:1 ~asn:20473 ~remove_private_on_export:true ()
  in
  Speaker.add_neighbor s ~node_id:2 ~asn:64512 ~rel:Relationship.Customer ();
  Speaker.add_neighbor s ~node_id:3 ~asn:2914 ~rel:Relationship.Provider ();
  let wire =
    Route.make ~prefix:(prefix "2001:db8::/48")
      ~path:(As_path.of_list [ 64512 ]) ~next_hop:2 ()
  in
  let emissions = Speaker.receive s ~from_node:2 (Update.Announce wire) in
  List.iter
    (fun e ->
      match e.Update.update with
      | Update.Announce r when e.Update.to_node = 3 ->
          Alcotest.(check (list int)) "private asn stripped" [ 20473 ]
            (As_path.to_list r.Route.path)
      | _ -> ())
    emissions

let receive_from_customer_with_communities s communities =
  let wire =
    Route.make ~prefix:(prefix "2001:db8::/48")
      ~path:(As_path.of_list [ 64512 ]) ~next_hop:2
      ~communities ()
  in
  Speaker.receive s ~from_node:2 (Update.Announce wire)

let vultr_like_speaker ~interprets () =
  let s =
    Speaker.create ~node_id:1 ~asn:20473 ~interprets_actions:interprets
      ~remove_private_on_export:true ()
  in
  Speaker.add_neighbor s ~node_id:2 ~asn:64512 ~rel:Relationship.Customer ();
  Speaker.add_neighbor s ~node_id:2914 ~asn:2914 ~rel:Relationship.Provider ();
  Speaker.add_neighbor s ~node_id:1299 ~asn:1299 ~rel:Relationship.Provider ();
  s

let test_speaker_no_export_to_action () =
  let s = vultr_like_speaker ~interprets:true () in
  let communities =
    Community.Set.singleton (Community.action_to_community (Community.No_export_to 2914))
  in
  let emissions = receive_from_customer_with_communities s communities in
  let targets =
    List.filter_map
      (fun e ->
        match e.Update.update with
        | Update.Announce _ -> Some e.Update.to_node
        | Update.Withdraw _ -> None)
      emissions
  in
  Alcotest.(check bool) "2914 suppressed" false (List.mem 2914 targets);
  Alcotest.(check bool) "1299 announced" true (List.mem 1299 targets)

let test_speaker_action_ignored_when_not_interpreting () =
  let s = vultr_like_speaker ~interprets:false () in
  let communities =
    Community.Set.singleton (Community.action_to_community (Community.No_export_to 2914))
  in
  let emissions = receive_from_customer_with_communities s communities in
  let targets = List.map (fun e -> e.Update.to_node) emissions in
  Alcotest.(check bool) "2914 still announced" true (List.mem 2914 targets)

let test_speaker_no_export_transit_action () =
  let s = vultr_like_speaker ~interprets:true () in
  let communities =
    Community.Set.singleton (Community.action_to_community Community.No_export_transit)
  in
  let emissions = receive_from_customer_with_communities s communities in
  Alcotest.(check int) "nothing exported upstream" 0 (List.length emissions)

let test_speaker_export_only_action () =
  let s = vultr_like_speaker ~interprets:true () in
  let communities =
    Community.Set.singleton (Community.action_to_community (Community.Export_only_to 1299))
  in
  let emissions = receive_from_customer_with_communities s communities in
  let targets = List.map (fun e -> e.Update.to_node) emissions in
  Alcotest.(check (list int)) "only telia" [ 1299 ] targets

let test_speaker_prepend_action () =
  let s = vultr_like_speaker ~interprets:true () in
  let communities =
    Community.Set.singleton (Community.action_to_community (Community.Prepend_to (2914, 2)))
  in
  let emissions = receive_from_customer_with_communities s communities in
  List.iter
    (fun e ->
      match e.Update.update with
      | Update.Announce r when e.Update.to_node = 2914 ->
          Alcotest.(check (list int)) "prepended twice extra" [ 20473; 20473; 20473 ]
            (As_path.to_list r.Route.path)
      | Update.Announce r when e.Update.to_node = 1299 ->
          Alcotest.(check (list int)) "normal elsewhere" [ 20473 ]
            (As_path.to_list r.Route.path)
      | _ -> ())
    emissions

(* ------------------------------------------------------------------ *)
(* Network propagation                                                 *)

let converge_chain () =
  let topo = Tango_topo.Builders.chain 4 in
  let engine = Engine.create () in
  let net = Network.create topo engine in
  Network.announce net ~node:3 (prefix "2001:db8::/32") ();
  ignore (Network.converge net);
  net

let test_network_chain_propagation () =
  let net = converge_chain () in
  (match Network.as_path net ~node:0 (prefix "2001:db8::/32") with
  | Some path -> Alcotest.(check (list int)) "full path" [ 1; 2; 3 ] (As_path.to_list path)
  | None -> Alcotest.fail "prefix did not propagate");
  Alcotest.(check bool) "messages flowed" true (Network.messages_delivered net > 0)

let test_network_forwarding_path () =
  let net = converge_chain () in
  let addr = Tango_net.Addr.of_string_exn "2001:db8:1:2::3" in
  Alcotest.(check (option (list int))) "hop-by-hop" (Some [ 0; 1; 2; 3 ])
    (Network.forwarding_path net ~from_node:0 addr);
  Alcotest.(check (option (list int))) "unroutable" None
    (Network.forwarding_path net ~from_node:0 (Tango_net.Addr.of_string_exn "2001:db9::1"))

let test_network_withdraw () =
  let net = converge_chain () in
  Network.withdraw net ~node:3 (prefix "2001:db8::/32");
  ignore (Network.converge net);
  Alcotest.(check bool) "gone everywhere" true
    (Network.as_path net ~node:0 (prefix "2001:db8::/32") = None)

let test_network_valley_free_propagation () =
  (* 1 -peer- 2; 3 customer of 1; 4 customer of 2; 5 peer of 1.
     A route from 3 must reach 4 (via the peering) but never 5
     (1 may not export a peer... rather: 1 exports customer route to
     peers, but 2 must not re-export it to its peer 5'... construct:
     5 peers with 2 instead). *)
  let topo = Topology.create () in
  List.iter (fun (id, name) -> Topology.add_node topo ~id ~asn:id name)
    [ (1, "t1a"); (2, "t1b"); (3, "cust-a"); (4, "cust-b"); (5, "t1c") ];
  Topology.connect_peers topo 1 2 ();
  Topology.connect_peers topo 2 5 ();
  Topology.connect topo ~provider:1 ~customer:3 ();
  Topology.connect topo ~provider:2 ~customer:4 ();
  let engine = Engine.create () in
  let net = Network.create topo engine in
  Network.announce net ~node:3 (prefix "2001:db8::/32") ();
  ignore (Network.converge net);
  Alcotest.(check bool) "customer of peer reached" true
    (Network.as_path net ~node:4 (prefix "2001:db8::/32") <> None);
  Alcotest.(check bool) "peer of peer NOT reached" true
    (Network.as_path net ~node:5 (prefix "2001:db8::/32") = None)

let test_network_poisoning () =
  (* Stub 5 below providers 3 and 4, which sit below peered tier-1s 1,2.
     Poisoning AS 4 forces 4 (and anything that only reaches 5 via 4) to
     drop the route. *)
  let topo = Topology.create () in
  List.iter (fun (id, name) -> Topology.add_node topo ~id ~asn:id name)
    [ (1, "t1a"); (2, "t1b"); (3, "mid-a"); (4, "mid-b"); (5, "stub") ];
  Topology.connect_peers topo 1 2 ();
  Topology.connect topo ~provider:1 ~customer:3 ();
  Topology.connect topo ~provider:2 ~customer:4 ();
  Topology.connect topo ~provider:3 ~customer:5 ();
  Topology.connect topo ~provider:4 ~customer:5 ();
  let engine = Engine.create () in
  let net = Network.create topo engine in
  Network.announce net ~node:5 (prefix "2001:db8::/32") ~poison:[ 4 ] ();
  ignore (Network.converge net);
  Alcotest.(check bool) "poisoned AS rejects" true
    (Network.as_path net ~node:4 (prefix "2001:db8::/32") = None);
  (match Network.as_path net ~node:1 (prefix "2001:db8::/32") with
  | Some p ->
      (* The origin sandwiches the poisoned ASN: 5 announces "5 4 5". *)
      Alcotest.(check (list int)) "poison visible in path" [ 3; 5; 4; 5 ]
        (As_path.to_list p)
  | None -> Alcotest.fail "tier-1 should still have the route")

let test_network_mrai_same_outcome_less_churn () =
  (* With MRAI, the network must converge to the same routes while
     delivering no more updates than without. *)
  let build mrai_s =
    let topo = Tango_topo.Builders.random_hierarchy ~seed:5 ~tier1:3 ~tier2:6 ~stubs:10 in
    let engine = Engine.create () in
    let net = Network.create ~mrai_s topo engine in
    Network.announce net ~node:18 (prefix "2001:db8::/32") ();
    (* Retract and re-announce to generate churn MRAI can absorb. *)
    Network.withdraw net ~node:18 (prefix "2001:db8::/32");
    Network.announce net ~node:18 (prefix "2001:db8::/32") ();
    ignore (Network.converge net);
    net
  in
  let fast = build 0.0 and damped = build 5.0 in
  for node = 0 to 17 do
    let path net = Network.as_path net ~node (prefix "2001:db8::/32") in
    Alcotest.(check bool)
      (Printf.sprintf "node %d same route" node)
      true
      (match (path fast, path damped) with
      | Some a, Some b -> As_path.equal a b
      | None, None -> true
      | Some _, None | None, Some _ -> false)
  done;
  Alcotest.(check bool) "fewer or equal updates" true
    (Network.messages_delivered damped <= Network.messages_delivered fast)

let test_network_mrai_coalesces_flaps () =
  (* Rapid announce/withdraw/announce inside one hold-down reaches the
     neighbor as a single (latest) update. *)
  let topo = Tango_topo.Builders.chain 2 in
  let engine = Engine.create () in
  let net = Network.create ~mrai_s:10.0 topo engine in
  let p = prefix "2001:db8::/32" in
  Network.announce net ~node:1 p ();
  Network.withdraw net ~node:1 p;
  Network.announce net ~node:1 p ();
  Network.withdraw net ~node:1 p;
  Network.announce net ~node:1 p ();
  ignore (Network.converge net);
  Alcotest.(check bool) "route present" true (Network.as_path net ~node:0 p <> None);
  (* First update goes straight out; the four flaps behind it coalesce
     into one more. *)
  Alcotest.(check int) "two updates total" 2 (Network.messages_delivered net)

(* Property tests: on random Gao-Rexford hierarchies, the converged
   network must satisfy the classic global invariants. *)

let random_converged seed =
  let topo =
    Tango_topo.Builders.random_hierarchy ~seed ~tier1:3 ~tier2:5 ~stubs:8
  in
  let engine = Engine.create () in
  let net = Network.create topo engine in
  (* Announce from the last stub (always a stub by construction). *)
  let origin = 15 in
  Network.announce net ~node:origin (prefix "2001:db8::/32") ();
  ignore (Network.converge net);
  (topo, net, origin)

let bgp_qcheck_no_loops =
  QCheck.Test.make ~name:"converged paths never contain a loop" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let topo, net, _ = random_converged seed in
      List.for_all
        (fun (n : Topology.node) ->
          match Network.as_path net ~node:n.Topology.id (prefix "2001:db8::/32") with
          | None -> true
          | Some path ->
              let l = As_path.to_list path in
              List.length l = List.length (List.sort_uniq Int.compare l))
        (Topology.nodes topo))

let bgp_qcheck_valley_free =
  QCheck.Test.make ~name:"converged forwarding paths are valley-free" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let topo, net, _ = random_converged seed in
      let addr = Tango_net.Addr.of_string_exn "2001:db8:1:2::3" in
      List.for_all
        (fun (n : Topology.node) ->
          match Network.forwarding_path net ~from_node:n.Topology.id addr with
          | None -> true
          | Some path -> Topology.is_valley_free topo path)
        (Topology.nodes topo))

let bgp_qcheck_withdraw_cleans_everything =
  QCheck.Test.make ~name:"withdraw leaves no residue anywhere" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let topo, net, origin = random_converged seed in
      Network.withdraw net ~node:origin (prefix "2001:db8::/32");
      ignore (Network.converge net);
      List.for_all
        (fun (n : Topology.node) ->
          Network.as_path net ~node:n.Topology.id (prefix "2001:db8::/32") = None)
        (Topology.nodes topo))

let bgp_qcheck_customer_reaches_origin =
  QCheck.Test.make ~name:"providers of the origin always learn the route" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let topo, net, origin = random_converged seed in
      List.for_all
        (fun p -> Network.as_path net ~node:p (prefix "2001:db8::/32") <> None)
        (Topology.providers topo origin))

(* ------------------------------------------------------------------ *)
(* Forwarding table: the per-speaker FIB against the sort-and-scan      *)
(* longest-prefix match it replaced                                     *)

(* [Network.route_for_addr] as it stood before speakers kept a
   forwarding table, verbatim: fold the sorted loc-RIB and keep the
   longest match, the first in Prefix.compare order among equals. The
   table scan must agree with it on every probe. *)
let old_route_for_addr net ~node addr =
  let rib = Speaker.loc_rib (Network.speaker net node) in
  List.fold_left
    (fun acc (prefix, route) ->
      if Prefix.mem prefix addr then
        match acc with
        | Some (best_prefix, _) when Prefix.length best_prefix >= Prefix.length prefix ->
            acc
        | Some _ | None -> Some (prefix, route)
      else acc)
    None rib
  |> Option.map snd

(* Nested prefixes, from the default route down to a single host, plus
   siblings that split a parent at a bit boundary; the IPv4-mapped block
   (::ffff:0:0/96) nests the same way below the default route, with its
   masks ending in the low word. *)
let fib_universe =
  List.map prefix
    [
      "::ffff:0:0/96";
      "::ffff:a00:0/104";
      "::ffff:a01:0/112";
      "::ffff:a01:200/120";
      "::ffff:a01:203/128";
      "::ffff:a80:0/105";
      "::ffff:c0a8:0/112";
      "::ffff:ffff:ffff/128";
      "::/0";
      "2001:db8::/32";
      "2001:db8:1::/48";
      "2001:db8:1:2::/64";
      "2001:db8:1:2:8000::/65";
      "2001:db8:1:2::1/128";
      "2001:db8:8000::/33";
      "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128";
    ]

(* First and last address of a prefix, one past each end (wrapping at
   the ends of the address space) and one address strictly inside. *)
let fib_probes p =
  let len = Prefix.length p in
  let a = Prefix.nth_address p 0L in
  let hi = Ipv6.hi a and lo = Ipv6.lo a in
  let host_hi = if len >= 64 then 0L else Int64.shift_right_logical (-1L) len in
  let host_lo =
    if len <= 64 then -1L
    else if len = 128 then 0L
    else Int64.shift_right_logical (-1L) (len - 64)
  in
  let last = Ipv6.make (Int64.logor hi host_hi) (Int64.logor lo host_lo) in
  let before =
    if Int64.equal lo 0L then Ipv6.make (Int64.pred hi) (-1L)
    else Ipv6.make hi (Int64.pred lo)
  in
  let inside = Ipv6.make hi (Int64.logor lo (Int64.shift_right_logical host_lo 1)) in
  [ a; last; before; Ipv6.add last 1L; inside ]

let fib_agrees net topo =
  List.for_all
    (fun (n : Topology.node) ->
      let node = n.Topology.id in
      List.for_all
        (fun p ->
          List.for_all
            (fun addr ->
              Network.route_for_addr net ~node addr = old_route_for_addr net ~node addr)
            (fib_probes p))
        fib_universe)
    (Topology.nodes topo)

type fib_op = Announce of int * int | Withdraw of int * int

(* Random hierarchies, random announce/withdraw sequences over the
   universe from random nodes, and the engine stopped a random number of
   events into each step: the tables are compared mid-convergence after
   every step and once more after the network settles. *)
let bgp_qcheck_fib_matches_sort_and_scan =
  let universe = List.length fib_universe in
  let op =
    QCheck.Gen.(
      map3
        (fun withdraw node p -> if withdraw then Withdraw (node, p) else Announce (node, p))
        (frequencyl [ (3, false); (1, true) ])
        (int_bound 12) (int_bound (universe - 1)))
  in
  let gen =
    QCheck.Gen.(
      triple (int_bound 10_000)
        (list_size (int_range 1 24) (pair op (int_bound 40)))
        (int_bound 1))
  in
  let print (seed, steps, mrai) =
    Printf.sprintf "seed %d, mrai %d s: %s" seed mrai
      (String.concat "; "
         (List.map
            (fun (op, events) ->
              match op with
              | Announce (node, p) -> Printf.sprintf "announce %d@%d +%d" p node events
              | Withdraw (node, p) -> Printf.sprintf "withdraw %d@%d +%d" p node events)
            steps))
  in
  QCheck.Test.make ~name:"FIB lookup equals the sort-and-scan LPM" ~count:100
    (QCheck.make ~print gen)
    (fun (seed, steps, mrai) ->
      let topo = Tango_topo.Builders.random_hierarchy ~seed ~tier1:3 ~tier2:4 ~stubs:6 in
      let engine = Engine.create () in
      let net = Network.create ~mrai_s:(float_of_int mrai) topo engine in
      let agrees_after_each =
        List.for_all
          (fun (op, events) ->
            (match op with
            | Announce (node, p) -> Network.announce net ~node (List.nth fib_universe p) ()
            | Withdraw (node, p) -> Network.withdraw net ~node (List.nth fib_universe p));
            Engine.run ~max_events:events engine;
            fib_agrees net topo)
          steps
      in
      ignore (Network.converge net);
      agrees_after_each && fib_agrees net topo)

let test_fib_follows_loc_rib_changes () =
  (* Node 0 provides transit to node 1, node 1 to node 2. *)
  let topo = Tango_topo.Builders.chain 3 in
  let engine = Engine.create () in
  let net = Network.create topo engine in
  let addr = Addr.of_string_exn "2001:db8:1:2::3" in
  let lookup node = Network.route_for_addr net ~node addr in
  let prefix_at node =
    Option.map (fun (r : Route.t) -> Prefix.to_string r.Route.prefix) (lookup node)
  in
  Alcotest.(check (option string)) "nothing announced" None (prefix_at 1);
  Network.announce net ~node:1 (prefix "2001:db8::/32") ();
  Alcotest.(check (option string)) "own origination, before any event" (Some "2001:db8::/32")
    (prefix_at 1);
  ignore (Network.converge net);
  Network.announce net ~node:2 (prefix "2001:db8:1::/48") ();
  ignore (Network.converge net);
  Alcotest.(check (option string)) "more specific wins" (Some "2001:db8:1::/48") (prefix_at 1);
  Alcotest.(check (option int)) "learned from the customer" (Some 2)
    (Option.bind (lookup 1) (fun (r : Route.t) -> r.Route.learned_from));
  Network.withdraw net ~node:2 (prefix "2001:db8:1::/48");
  ignore (Network.converge net);
  Alcotest.(check (option string)) "back to the covering route" (Some "2001:db8::/32")
    (prefix_at 1);
  Network.withdraw net ~node:1 (prefix "2001:db8::/32");
  Alcotest.(check (option string)) "withdrawn at the node" None (prefix_at 1)

(* ------------------------------------------------------------------ *)
(* The Vultr scenario: Fig. 3's discovery substrate                    *)

module Vultr = Tango_topo.Vultr

let vultr_net () =
  let topo = Vultr.build () in
  let engine = Engine.create () in
  Network.create ~configure:Tango.Pair.vultr_overrides topo engine

let ny_prefix = prefix "2001:db8:b000::/48"

let suppress asns =
  Community.Set.of_list
    (List.map (fun a -> Community.action_to_community (Community.No_export_to a)) asns)

let observed_transits net =
  match Network.as_path net ~node:Vultr.server_la ny_prefix with
  | None -> None
  | Some path ->
      (* Strip Vultr's ASN: what remains is the transit sequence. *)
      Some
        (List.filter (fun a -> a <> Vultr.vultr_asn) (As_path.to_list path))

let test_vultr_default_route_is_ntt () =
  let net = vultr_net () in
  Network.announce net ~node:Vultr.server_ny ny_prefix ();
  ignore (Network.converge net);
  (match Network.as_path net ~node:Vultr.server_la ny_prefix with
  | Some p ->
      Alcotest.(check (list int)) "LA sees Vultr-NTT-Vultr"
        [ Vultr.vultr_asn; Vultr.ntt; Vultr.vultr_asn ]
        (As_path.to_list p)
  | None -> Alcotest.fail "no route at LA server")

let test_vultr_suppression_sequence () =
  (* The iterative discovery of the paper, step by step. *)
  let net = vultr_net () in
  let step communities expect =
    Network.announce net ~node:Vultr.server_ny ny_prefix
      ~communities:(suppress communities) ();
    ignore (Network.converge net);
    Alcotest.(check (option (list int)))
      (Printf.sprintf "suppressing [%s]"
         (String.concat ";" (List.map string_of_int communities)))
      expect (observed_transits net)
  in
  step [] (Some [ Vultr.ntt ]);
  step [ Vultr.ntt ] (Some [ Vultr.telia ]);
  step [ Vultr.ntt; Vultr.telia ] (Some [ Vultr.gtt ]);
  step [ Vultr.ntt; Vultr.telia; Vultr.gtt ] (Some [ Vultr.ntt; Vultr.cogent ]);
  step [ Vultr.ntt; Vultr.telia; Vultr.gtt; Vultr.cogent ] None

let test_vultr_reverse_direction () =
  (* NY -> LA: the fourth path runs through Level3 instead of Cogent. *)
  let net = vultr_net () in
  let la_prefix = prefix "2001:db8:a000::/48" in
  Network.announce net ~node:Vultr.server_la la_prefix
    ~communities:(suppress [ Vultr.ntt; Vultr.telia; Vultr.gtt ]) ();
  ignore (Network.converge net);
  match Network.as_path net ~node:Vultr.server_ny la_prefix with
  | Some p ->
      let transits =
        List.filter (fun a -> a <> Vultr.vultr_asn) (As_path.to_list p)
      in
      Alcotest.(check (list int)) "via NTT+Level3" [ Vultr.ntt; Vultr.level3 ] transits
  | None -> Alcotest.fail "no route at NY server"

let test_vultr_forwarding_path_follows_bgp () =
  let net = vultr_net () in
  Network.announce net ~node:Vultr.server_ny ny_prefix
    ~communities:(suppress [ Vultr.ntt ]) ();
  ignore (Network.converge net);
  let addr = Prefix.nth_address ny_prefix 1L in
  Alcotest.(check (option (list int))) "data follows Telia"
    (Some [ Vultr.server_la; Vultr.vultr_la; Vultr.telia; Vultr.vultr_ny; Vultr.server_ny ])
    (Network.forwarding_path net ~from_node:Vultr.server_la addr)

let test_vultr_host_and_tunnel_prefixes_coexist () =
  let net = vultr_net () in
  let tunnel0 = prefix "2001:db8:b000::/48" in
  let tunnel1 = prefix "2001:db8:b001::/48" in
  Network.announce net ~node:Vultr.server_ny tunnel0 ();
  Network.announce net ~node:Vultr.server_ny tunnel1
    ~communities:(suppress [ Vultr.ntt ]) ();
  ignore (Network.converge net);
  let path_of p =
    Option.map
      (fun path -> List.filter (fun a -> a <> Vultr.vultr_asn) (As_path.to_list path))
      (Network.as_path net ~node:Vultr.server_la p)
  in
  Alcotest.(check (option (list int))) "tunnel0 on NTT" (Some [ Vultr.ntt ]) (path_of tunnel0);
  Alcotest.(check (option (list int))) "tunnel1 on Telia" (Some [ Vultr.telia ]) (path_of tunnel1)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "tango_bgp"
    [
      ( "community",
        [
          tc "validation" `Quick test_community_validation;
          tc "string roundtrip" `Quick test_community_string_roundtrip;
          tc "action roundtrip" `Quick test_community_action_roundtrip;
          tc "ordinary not action" `Quick test_community_ordinary_not_action;
          tc "actions of set" `Quick test_community_actions_of_set;
        ] );
      ( "as_path",
        [
          tc "basics" `Quick test_as_path_basics;
          tc "prepend" `Quick test_as_path_prepend;
          tc "neighbor of origin" `Quick test_as_path_neighbor_of_origin;
          tc "strip private" `Quick test_as_path_strip_private;
        ] );
      ( "decision",
        [
          tc "local pref first" `Quick test_decision_local_pref_first;
          tc "length before weight" `Quick test_decision_path_length_before_weight;
          tc "weight breaks ties" `Quick test_decision_weight_breaks_length_ties;
          tc "med and node id" `Quick test_decision_med_and_node_tiebreak;
          tc "local beats learned" `Quick test_decision_local_beats_learned;
          tc "best and rank" `Quick test_decision_best_and_rank;
        ] );
      ( "speaker",
        [
          tc "originate exports" `Quick test_speaker_originate_exports_to_all;
          tc "loop rejection" `Quick test_speaker_loop_rejection;
          tc "allowas-in" `Quick test_speaker_allowas_in;
          tc "no peer transit" `Quick test_speaker_gao_rexford_no_peer_transit;
          tc "split horizon" `Quick test_speaker_split_horizon;
          tc "withdraw cascade" `Quick test_speaker_withdraw_cascade;
          tc "remove private" `Quick test_speaker_remove_private;
          tc "no-export-to action" `Quick test_speaker_no_export_to_action;
          tc "action needs interpreter" `Quick test_speaker_action_ignored_when_not_interpreting;
          tc "no-export-transit action" `Quick test_speaker_no_export_transit_action;
          tc "export-only action" `Quick test_speaker_export_only_action;
          tc "prepend action" `Quick test_speaker_prepend_action;
        ] );
      ( "network",
        [
          tc "chain propagation" `Quick test_network_chain_propagation;
          tc "forwarding path" `Quick test_network_forwarding_path;
          tc "withdraw" `Quick test_network_withdraw;
          tc "valley-free propagation" `Quick test_network_valley_free_propagation;
          tc "poisoning" `Quick test_network_poisoning;
          tc "mrai same outcome" `Quick test_network_mrai_same_outcome_less_churn;
          tc "mrai coalesces flaps" `Quick test_network_mrai_coalesces_flaps;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest bgp_qcheck_no_loops;
          QCheck_alcotest.to_alcotest bgp_qcheck_valley_free;
          QCheck_alcotest.to_alcotest bgp_qcheck_withdraw_cleans_everything;
          QCheck_alcotest.to_alcotest bgp_qcheck_customer_reaches_origin;
        ] );
      ( "fib",
        [
          tc "follows loc-RIB changes" `Quick test_fib_follows_loc_rib_changes;
          QCheck_alcotest.to_alcotest bgp_qcheck_fib_matches_sort_and_scan;
        ] );
      ( "vultr",
        [
          tc "default is NTT" `Quick test_vultr_default_route_is_ntt;
          tc "suppression sequence (Fig 3)" `Quick test_vultr_suppression_sequence;
          tc "reverse via Level3" `Quick test_vultr_reverse_direction;
          tc "forwarding follows BGP" `Quick test_vultr_forwarding_path_follows_bgp;
          tc "multiple prefixes coexist" `Quick test_vultr_host_and_tunnel_prefixes_coexist;
        ] );
    ]
