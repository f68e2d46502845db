(* Tests for the baseline comparators: RTT/2 route control and
   non-tunneled ECMP measurement. *)

module Rtt = Tango_baselines.Rtt_control
module Ecmp_probe = Tango_baselines.Ecmp_probe
module Vultr = Tango_topo.Vultr
module Network = Tango_bgp.Network
module Prefix = Tango_net.Prefix
module Series = Tango_telemetry.Series

(* ------------------------------------------------------------------ *)
(* Rtt_control                                                         *)

let test_rtt_estimates () =
  let est = Rtt.estimates ~forward_ms:[| 30.0; 40.0 |] ~reverse_ms:[| 20.0; 10.0 |] in
  Alcotest.(check int) "count" 2 (Array.length est);
  Alcotest.(check (float 1e-9)) "path0" 25.0 est.(0).Rtt.rtt_half_ms;
  Alcotest.(check (float 1e-9)) "path1" 25.0 est.(1).Rtt.rtt_half_ms

let test_rtt_mismatch_rejected () =
  Alcotest.(check bool) "length mismatch" true
    (try ignore (Rtt.estimates ~forward_ms:[| 1.0 |] ~reverse_ms:[||]); false
     with Invalid_argument _ -> true)

let test_rtt_blind_to_asymmetry () =
  (* Forward congestion on path 0 is invisible when the reverse is
     correspondingly fast: the core failure mode of RTT control. *)
  let forward = [| 40.0; 31.0 |] and reverse = [| 20.0; 31.0 |] in
  let est = Rtt.estimates ~forward_ms:forward ~reverse_ms:reverse in
  Alcotest.(check int) "rtt picks the congested path" 0 (Rtt.best est);
  Alcotest.(check int) "owd picks the truly faster one" 1 (Rtt.best_one_way forward);
  Alcotest.(check (float 1e-9)) "regret" 9.0
    (Rtt.regret_ms ~forward_ms:forward ~chosen:(Rtt.best est))

let test_rtt_agrees_when_symmetric () =
  let forward = [| 36.4; 28.0 |] and reverse = [| 36.4; 28.0 |] in
  let est = Rtt.estimates ~forward_ms:forward ~reverse_ms:reverse in
  Alcotest.(check int) "same choice" (Rtt.best_one_way forward) (Rtt.best est);
  Alcotest.(check (float 1e-9)) "no regret" 0.0
    (Rtt.regret_ms ~forward_ms:forward ~chosen:(Rtt.best est))

let test_rtt_nan_skipped () =
  let est = Rtt.estimates ~forward_ms:[| nan; 30.0 |] ~reverse_ms:[| nan; 30.0 |] in
  Alcotest.(check int) "nan skipped" 1 (Rtt.best est)

let test_rtt_no_usable () =
  Alcotest.(check bool) "raises" true
    (try ignore (Rtt.best_one_way [| nan; nan |]); false
     with Invalid_argument _ -> true)

let rtt_qcheck_regret_nonnegative =
  QCheck.Test.make ~name:"rtt regret is never negative" ~count:300
    QCheck.(
      pair
        (array_of_size (Gen.int_range 1 6) (float_range 1.0 100.0))
        (array_of_size (Gen.int_range 1 6) (float_range 1.0 100.0)))
    (fun (forward, reverse) ->
      QCheck.assume (Array.length forward = Array.length reverse);
      let est = Rtt.estimates ~forward_ms:forward ~reverse_ms:reverse in
      Rtt.regret_ms ~forward_ms:forward ~chosen:(Rtt.best est) >= 0.0)

(* ------------------------------------------------------------------ *)
(* Ecmp_probe                                                          *)

let vultr_with_lanes () =
  let topo = Vultr.build () in
  let engine = Tango_sim.Engine.create () in
  let net =
    Network.create ~configure:Tango.Pair.vultr_overrides topo engine
  in
  let plan =
    Tango.Addressing.carve ~block:Tango.Addressing.default_block ~site_index:1
      ~path_count:0
  in
  Network.announce net ~node:Vultr.server_ny plan.Tango.Addressing.host_prefix ();
  ignore (Network.converge net);
  let fabric =
    Tango_dataplane.Fabric.create ~seed:5
      ~lanes_of:(fun node ->
        if node = Vultr.ntt then
          Tango_dataplane.Ecmp.uniform_lanes ~count:4 ~spread_ms:2.0
        else [| 0.0 |])
      net
  in
  let src =
    Tango.Addressing.host_address
      (Tango.Addressing.carve ~block:Tango.Addressing.default_block ~site_index:0
         ~path_count:0)
      1L
  in
  (fabric, src, Tango.Addressing.host_address plan 1L)

let test_ecmp_probe_pinned_is_tight () =
  let fabric, src, dst = vultr_with_lanes () in
  let r =
    Ecmp_probe.measure ~fabric ~from_node:Vultr.server_la ~src ~dst ~mode:`Pinned
      ~probes:300 ~interval_s:0.005 ()
  in
  Alcotest.(check int) "all delivered" 300 r.Ecmp_probe.delivered;
  Alcotest.(check bool) "tiny stddev" true
    ((Series.stats r.Ecmp_probe.series).Tango_sim.Stats.stddev < 0.1)

let test_ecmp_probe_naive_is_noisy () =
  let fabric, src, dst = vultr_with_lanes () in
  let naive =
    Ecmp_probe.measure ~fabric ~from_node:Vultr.server_la ~src ~dst
      ~mode:(`Per_flow_ports 64) ~probes:600 ~interval_s:0.005 ()
  in
  let pinned =
    Ecmp_probe.measure ~fabric ~from_node:Vultr.server_la ~src ~dst ~mode:`Pinned
      ~probes:600 ~interval_s:0.005 ()
  in
  Alcotest.(check bool) "naive visibly noisier" true
    ((Series.stats naive.Ecmp_probe.series).Tango_sim.Stats.stddev > 1.0);
  Alcotest.(check bool) "ratio large" true
    (Ecmp_probe.conflation_ratio ~naive ~pinned > 5.0)

let test_ecmp_probe_no_lanes_equal () =
  (* Without internal lanes, naive and pinned measurements agree. *)
  let topo = Vultr.build () in
  let engine = Tango_sim.Engine.create () in
  let net = Network.create topo engine in
  let plan =
    Tango.Addressing.carve ~block:Tango.Addressing.default_block ~site_index:1
      ~path_count:0
  in
  Network.announce net ~node:Vultr.server_ny plan.Tango.Addressing.host_prefix ();
  ignore (Network.converge net);
  let fabric = Tango_dataplane.Fabric.create ~seed:6 net in
  let src =
    Tango.Addressing.host_address
      (Tango.Addressing.carve ~block:Tango.Addressing.default_block ~site_index:0
         ~path_count:0)
      1L
  in
  let dst = Tango.Addressing.host_address plan 1L in
  let naive =
    Ecmp_probe.measure ~fabric ~from_node:Vultr.server_la ~src ~dst
      ~mode:(`Per_flow_ports 32) ~probes:300 ~interval_s:0.005 ()
  in
  Alcotest.(check bool) "no fabricated variance" true
    ((Series.stats naive.Ecmp_probe.series).Tango_sim.Stats.stddev < 0.1)

(* ------------------------------------------------------------------ *)
(* Overlay planning                                                    *)

let test_overlay_direct_when_best () =
  let owd ~src ~dst = float_of_int (10 * (1 + src + dst)) in
  let plans = Tango.Overlay.plan_routes ~owd_ms:owd ~sites:3 () in
  List.iter
    (fun (p : Tango.Overlay.plan) ->
      Alcotest.(check bool) "relaying never beats the triangle inequality here" true
        (p.Tango.Overlay.route = Tango.Overlay.Direct))
    plans

let test_overlay_relay_when_direct_poor () =
  let owd ~src ~dst =
    match (src, dst) with
    | 0, 2 | 2, 0 -> 100.0
    | _ -> 10.0
  in
  let plans = Tango.Overlay.plan_routes ~owd_ms:owd ~sites:3 () in
  let p02 = List.find (fun (p : Tango.Overlay.plan) -> p.Tango.Overlay.src = 0 && p.Tango.Overlay.dst = 2) plans in
  Alcotest.(check bool) "relays via 1" true
    (p02.Tango.Overlay.route = Tango.Overlay.Relay [ 1 ]);
  Alcotest.(check (float 1e-9)) "owd" 20.1 p02.Tango.Overlay.owd_ms;
  Alcotest.(check (float 1e-9)) "gain" 79.9 (Tango.Overlay.gain_ms p02)

let test_overlay_relay_overhead_counts () =
  (* A relay that would tie with direct must lose due to overhead. *)
  let owd ~src ~dst = match (src, dst) with 0, 2 | 2, 0 -> 20.0 | _ -> 10.0 in
  let plans = Tango.Overlay.plan_routes ~owd_ms:owd ~sites:3 () in
  let p02 = List.find (fun (p : Tango.Overlay.plan) -> p.Tango.Overlay.src = 0 && p.Tango.Overlay.dst = 2) plans in
  Alcotest.(check bool) "stays direct" true (p02.Tango.Overlay.route = Tango.Overlay.Direct)

let test_overlay_invalid_args () =
  Alcotest.(check bool) "one site" true
    (try ignore (Tango.Overlay.plan_routes ~owd_ms:(fun ~src:_ ~dst:_ -> 1.0) ~sites:1 ()); false
     with Invalid_argument _ -> true)

let overlay_qcheck_never_worse_than_direct =
  QCheck.Test.make ~name:"overlay plan never exceeds the direct delay" ~count:200
    QCheck.(array_of_size (Gen.return 16) (float_range 1.0 100.0))
    (fun weights ->
      let owd ~src ~dst = weights.((src * 4) + dst) in
      let plans = Tango.Overlay.plan_routes ~owd_ms:owd ~sites:4 () in
      List.for_all
        (fun (p : Tango.Overlay.plan) ->
          p.Tango.Overlay.owd_ms <= p.Tango.Overlay.direct_ms +. 1e-9)
        plans)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_baselines"
    [
      ( "rtt_control",
        [
          tc "estimates" `Quick test_rtt_estimates;
          tc "mismatch rejected" `Quick test_rtt_mismatch_rejected;
          tc "blind to asymmetry" `Quick test_rtt_blind_to_asymmetry;
          tc "agrees when symmetric" `Quick test_rtt_agrees_when_symmetric;
          tc "nan skipped" `Quick test_rtt_nan_skipped;
          tc "no usable estimate" `Quick test_rtt_no_usable;
          qc rtt_qcheck_regret_nonnegative;
        ] );
      ( "ecmp_probe",
        [
          tc "pinned is tight" `Quick test_ecmp_probe_pinned_is_tight;
          tc "naive is noisy" `Quick test_ecmp_probe_naive_is_noisy;
          tc "no lanes: equal" `Quick test_ecmp_probe_no_lanes_equal;
        ] );
      ( "overlay",
        [
          tc "direct when best" `Quick test_overlay_direct_when_best;
          tc "relay when direct poor" `Quick test_overlay_relay_when_direct_poor;
          tc "overhead counts" `Quick test_overlay_relay_overhead_counts;
          tc "invalid args" `Quick test_overlay_invalid_args;
          qc overlay_qcheck_never_worse_than_direct;
        ] );
    ]
