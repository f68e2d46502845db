(* Tests for the Tango core: address plans, path discovery (Fig. 3),
   routing policies, and the full two-PoP integration with live one-way
   measurements. *)

open Tango
module Prefix = Tango_net.Prefix
module Vultr = Tango_topo.Vultr
module Series = Tango_telemetry.Series

(* ------------------------------------------------------------------ *)
(* Addressing                                                          *)

let test_carve_shape () =
  let plan = Addressing.carve ~block:Addressing.default_block ~site_index:0 ~path_count:4 in
  Alcotest.(check int) "four tunnel prefixes" 4 (List.length plan.Addressing.tunnel_prefixes);
  List.iter
    (fun p ->
      Alcotest.(check bool) "inside block" true
        (Prefix.subsumes Addressing.default_block p);
      Alcotest.(check bool) "distinct from host" false
        (Prefix.equal p plan.Addressing.host_prefix))
    plan.Addressing.tunnel_prefixes

let test_carve_sites_disjoint () =
  let a = Addressing.carve ~block:Addressing.default_block ~site_index:0 ~path_count:4 in
  let b = Addressing.carve ~block:Addressing.default_block ~site_index:1 ~path_count:4 in
  let all plan = plan.Addressing.host_prefix :: plan.Addressing.tunnel_prefixes in
  List.iter
    (fun pa ->
      List.iter
        (fun pb ->
          Alcotest.(check bool) "disjoint" false (Prefix.overlaps pa pb))
        (all b))
    (all a)

let test_carve_limits () =
  Alcotest.(check bool) "too many paths" true
    (try
       ignore (Addressing.carve ~block:Addressing.default_block ~site_index:0 ~path_count:16);
       false
     with Invalid_argument _ -> true)

let test_tunnel_endpoint_membership () =
  let plan = Addressing.carve ~block:Addressing.default_block ~site_index:2 ~path_count:3 in
  List.iteri
    (fun i p ->
      let ep = Addressing.tunnel_endpoint plan ~path:i in
      Alcotest.(check bool) "endpoint inside its prefix" true (Prefix.mem p ep))
    plan.Addressing.tunnel_prefixes;
  Alcotest.(check bool) "host address in host prefix" true
    (Prefix.mem plan.Addressing.host_prefix (Addressing.host_address plan 5L))

(* ------------------------------------------------------------------ *)
(* Discovery (Fig. 3)                                                  *)

let vultr_net () =
  let topo = Vultr.build () in
  let engine = Tango_sim.Engine.create () in
  Tango_bgp.Network.create ~configure:Pair.vultr_overrides topo engine

let probe = Prefix.of_string_exn "2001:db8:7000::/48"

let test_discovery_la_to_ny () =
  let net = vultr_net () in
  let result =
    Discovery.run ~net ~origin:Vultr.server_ny ~observer:Vultr.server_la
      ~probe_prefix:probe ()
  in
  let labels = List.map (fun p -> p.Discovery.label) result.Discovery.paths in
  Alcotest.(check (list string)) "paper order (Fig 3)"
    [ "NTT"; "Telia"; "GTT"; "Cogent" ] labels;
  Alcotest.(check int) "iterations = paths + 1" 5 result.Discovery.iterations;
  (* Path i needs exactly i suppression communities. *)
  List.iteri
    (fun i p ->
      Alcotest.(check int)
        (Printf.sprintf "path %d communities" i)
        i
        (Tango_bgp.Community.Set.cardinal p.Discovery.communities))
    result.Discovery.paths;
  (* The Cogent path traverses two transits. *)
  let cogent = List.nth result.Discovery.paths 3 in
  Alcotest.(check (list int)) "NTT then Cogent" [ Vultr.ntt; Vultr.cogent ]
    cogent.Discovery.transits

let test_discovery_ny_to_la () =
  let net = vultr_net () in
  let result =
    Discovery.run ~net ~origin:Vultr.server_la ~observer:Vultr.server_ny
      ~probe_prefix:probe ()
  in
  let labels = List.map (fun p -> p.Discovery.label) result.Discovery.paths in
  Alcotest.(check (list string)) "reverse direction"
    [ "NTT"; "Telia"; "GTT"; "Level3" ] labels

let test_discovery_withdraws_probe () =
  let net = vultr_net () in
  ignore
    (Discovery.run ~net ~origin:Vultr.server_ny ~observer:Vultr.server_la
       ~probe_prefix:probe ());
  Alcotest.(check bool) "probe gone" true
    (Tango_bgp.Network.as_path net ~node:Vultr.server_la probe = None)

let test_discovery_max_paths () =
  let net = vultr_net () in
  let result =
    Discovery.run ~net ~origin:Vultr.server_ny ~observer:Vultr.server_la
      ~probe_prefix:probe ~max_paths:2 ()
  in
  Alcotest.(check int) "capped" 2 (List.length result.Discovery.paths)

let test_discovery_by_poisoning () =
  (* §3/§6: poisoning needs no community support, but it knocks the
     poisoned transit out entirely, so the fourth path detours through
     whichever transits remain (Cogent reached via Level3) rather than
     via the poisoned NTT. *)
  let net = vultr_net () in
  let result =
    Discovery.run ~net ~origin:Vultr.server_ny ~observer:Vultr.server_la
      ~probe_prefix:probe ~mechanism:`Poisoning ()
  in
  let labels = List.map (fun p -> p.Discovery.label) result.Discovery.paths in
  Alcotest.(check int) "four paths" 4 (List.length result.Discovery.paths);
  Alcotest.(check (list string)) "first three match communities"
    [ "NTT"; "Telia"; "GTT" ]
    (List.filteri (fun i _ -> i < 3) labels);
  List.iteri
    (fun i p ->
      Alcotest.(check int) "no communities" 0
        (Tango_bgp.Community.Set.cardinal p.Discovery.communities);
      Alcotest.(check int) "i poisons" i (List.length p.Discovery.poisons))
    result.Discovery.paths;
  (* The poisoned ASNs are visible in the raw announced path. *)
  let last = List.nth result.Discovery.paths 3 in
  Alcotest.(check bool) "poison rides in as-path" true
    (List.for_all
       (fun asn -> Tango_bgp.As_path.contains last.Discovery.as_path asn)
       last.Discovery.poisons)

let test_discovery_single_homed_chain () =
  (* A single-homed stub behind one provider chain: exactly one path. *)
  let topo = Tango_topo.Builders.chain 4 in
  let engine = Tango_sim.Engine.create () in
  let net = Tango_bgp.Network.create topo engine in
  let result =
    Discovery.run ~net ~origin:3 ~observer:0
      ~probe_prefix:(Prefix.of_string_exn "2001:db8::/32")
      ()
  in
  Alcotest.(check int) "one path" 1 (List.length result.Discovery.paths)

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

let path_stats ?(loss = 0.0) ?(age = 0.0) ?(jitter = 0.0) path_id owd =
  {
    Policy.path_id;
    owd_ewma_ms = owd;
    jitter_ms = jitter;
    loss_rate = loss;
    age_s = age;
    samples = 100;
  }

let stats ~owd0 ~owd1 = [| path_stats 0 owd0; path_stats 1 owd1 |]

let test_policy_bgp_default () =
  let p = Policy.create Policy.Bgp_default in
  Alcotest.(check int) "always 0" 0
    (Policy.choose p ~now_s:0.0 (stats ~owd0:100.0 ~owd1:1.0))

let test_policy_static () =
  let p = Policy.create (Policy.Static 1) in
  Alcotest.(check int) "pinned" 1
    (Policy.choose p ~now_s:0.0 (stats ~owd0:1.0 ~owd1:100.0))

let test_policy_lowest_owd_switches () =
  let p = Policy.create (Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 0.0 }) in
  Alcotest.(check int) "moves to faster path" 1
    (Policy.choose p ~now_s:0.0 (stats ~owd0:36.4 ~owd1:28.0));
  Alcotest.(check int) "switch recorded" 1 (Policy.switches p)

let test_policy_hysteresis_blocks_small_win () =
  let p = Policy.create (Policy.Lowest_owd { hysteresis_ms = 2.0; min_dwell_s = 0.0 }) in
  Alcotest.(check int) "0.5ms win not enough" 0
    (Policy.choose p ~now_s:0.0 (stats ~owd0:28.5 ~owd1:28.0))

let test_policy_dwell_blocks_flapping () =
  let p = Policy.create (Policy.Lowest_owd { hysteresis_ms = 0.5; min_dwell_s = 10.0 }) in
  ignore (Policy.choose p ~now_s:0.0 (stats ~owd0:30.0 ~owd1:28.0));
  Alcotest.(check int) "switched once" 1 (Policy.current p);
  (* Path 0 becomes better again, but we are inside the dwell. *)
  Alcotest.(check int) "held" 1
    (Policy.choose p ~now_s:5.0 (stats ~owd0:25.0 ~owd1:28.0));
  Alcotest.(check int) "released after dwell" 0
    (Policy.choose p ~now_s:11.0 (stats ~owd0:25.0 ~owd1:28.0))

let test_policy_jitter_aware () =
  let p =
    Policy.create (Policy.Jitter_aware { beta = 10.0; hysteresis_ms = 0.1; min_dwell_s = 0.0 })
  in
  let stats =
    [| path_stats ~jitter:0.33 0 28.0; path_stats ~jitter:0.01 1 29.0 |]
  in
  (* 28 + 3.3 > 29 + 0.1: the steadier path wins despite higher OWD. *)
  Alcotest.(check int) "prefers low jitter" 1 (Policy.choose p ~now_s:0.0 stats)

let test_policy_loss_failover () =
  let p = Policy.create (Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 100.0 }) in
  (* Establish path 0 as current (it is the default). *)
  Alcotest.(check int) "starts on best" 0
    (Policy.choose p ~now_s:0.0 (stats ~owd0:28.0 ~owd1:31.0));
  (* Path 0 starts dropping everything: evacuate immediately, even inside
     the dwell window. *)
  let lossy = [| path_stats ~loss:0.8 0 28.0; path_stats 1 31.0 |] in
  Alcotest.(check int) "emergency failover" 1 (Policy.choose p ~now_s:0.5 lossy)

let test_policy_staleness_failover () =
  let p = Policy.create (Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 100.0 }) in
  ignore (Policy.choose p ~now_s:0.0 (stats ~owd0:28.0 ~owd1:31.0));
  (* No fresh samples from path 0 for 5 s (silent blackhole). *)
  let stale = [| path_stats ~age:5.0 0 28.0; path_stats 1 31.0 |] in
  Alcotest.(check int) "stale path evacuated" 1 (Policy.choose p ~now_s:0.5 stale)

let test_policy_no_failover_without_alternative () =
  let p = Policy.create (Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 0.0 }) in
  ignore (Policy.choose p ~now_s:0.0 (stats ~owd0:28.0 ~owd1:31.0));
  (* Everything is down: stay put rather than bounce. *)
  let all_bad = [| path_stats ~loss:0.9 0 28.0; path_stats ~loss:0.9 1 31.0 |] in
  Alcotest.(check int) "holds current" 0 (Policy.choose p ~now_s:1.0 all_bad)

let test_policy_no_measurements_fallback () =
  let p = Policy.create (Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 0.0 }) in
  let empty = [| Policy.no_stats ~path_id:0; Policy.no_stats ~path_id:1 |] in
  Alcotest.(check int) "default path" 0 (Policy.choose p ~now_s:0.0 empty)

(* ------------------------------------------------------------------ *)
(* ECMP reverse engineering                                            *)

(* Probe LA -> NY across NTT split into [count] ECMP lanes [spread_ms]
   apart: the map [Ecmp_map.probe] infers from the per-flow floors. *)
let probe_lanes ?(flows = 64) ~count ~spread_ms () =
  let net = vultr_net () in
  let plan = Addressing.carve ~block:Addressing.default_block ~site_index:1 ~path_count:0 in
  Tango_bgp.Network.announce net ~node:Vultr.server_ny plan.Addressing.host_prefix ();
  ignore (Tango_bgp.Network.converge net);
  let fabric =
    Tango_dataplane.Fabric.create ~seed:3
      ~lanes_of:(fun node ->
        if node = Vultr.ntt then Tango_dataplane.Ecmp.uniform_lanes ~count ~spread_ms
        else [| 0.0 |])
      net
  in
  Ecmp_map.probe ~fabric ~from_node:Vultr.server_la
    ~src:
      (Addressing.host_address
         (Addressing.carve ~block:Addressing.default_block ~site_index:0 ~path_count:0)
         1L)
    ~dst:(Addressing.host_address plan 1L)
    ~flows ~probes_per_flow:8 ()

(* Floors 2 ms apart sit four tolerances apart: one cluster per lane,
   every flow in one of them, in ascending order. *)
let test_ecmp_map_cluster () =
  let map = probe_lanes ~flows:7 ~count:3 ~spread_ms:2.0 () in
  Alcotest.(check int) "three clusters" 3 (List.length map.Ecmp_map.lanes);
  match map.Ecmp_map.lanes with
  | [ l1; l2; l3 ] ->
      Alcotest.(check int) "sizes" 7 (l1.Ecmp_map.flows + l2.Ecmp_map.flows + l3.Ecmp_map.flows);
      Alcotest.(check bool) "means ordered" true
        (l1.Ecmp_map.offset_ms < l2.Ecmp_map.offset_ms
        && l2.Ecmp_map.offset_ms < l3.Ecmp_map.offset_ms);
      Alcotest.(check bool) "second near 2" true (abs_float (l2.Ecmp_map.offset_ms -. 2.0) < 0.2)
  | _ -> Alcotest.fail "unexpected shape"

(* Floors 0.2 ms apart all merge within the tolerance. *)
let test_ecmp_map_cluster_single () =
  Alcotest.(check int) "one cluster" 1
    (List.length (probe_lanes ~count:4 ~spread_ms:0.1 ()).Ecmp_map.lanes)

let test_ecmp_map_infer () =
  let map = probe_lanes ~count:3 ~spread_ms:2.0 () in
  Alcotest.(check int) "three lanes" 3 (List.length map.Ecmp_map.lanes);
  Alcotest.(check (float 0.1)) "spread" 4.0 map.Ecmp_map.spread_ms;
  (match map.Ecmp_map.lanes with
  | first :: _ -> Alcotest.(check (float 1e-9)) "fastest at 0" 0.0 first.Ecmp_map.offset_ms
  | [] -> Alcotest.fail "no lanes")

let test_ecmp_map_probe_end_to_end () =
  (* A transit with 4 lanes 2 ms apart must be inferred from probes. *)
  let map = probe_lanes ~count:4 ~spread_ms:2.0 () in
  Alcotest.(check int) "four lanes found" 4 (List.length map.Ecmp_map.lanes);
  Alcotest.(check (float 0.3)) "spread ~6ms" 6.0 map.Ecmp_map.spread_ms

(* The pair-vultr benchmark job: Fig. 4 dynamics over a 20 s horizon,
   probes every 10 ms, 2000 app packets/s NY -> LA, seed 42, metric
   recording off. Its minor- and major-heap allocation per delivered app
   packet are deterministic counts, so both are bounded here. Like the benchmark, it
   counts the drive and the read-out after it: the app-latency summary
   and each inbound path's mean OWD. *)
let test_pair_vultr_alloc () =
  let seed = 42 and horizon_s = 20.0 in
  let was = Tango_obs.Metric.enabled () in
  Tango_obs.Metric.set_enabled false;
  let scenario = Tango_workload.Fig4.create ~seed ~horizon_s () in
  let pair =
    Pair.setup_vultr ~seed ~scenario ~clock_offset_la_ns:0L ~clock_offset_ny_ns:0L ()
  in
  let engine = Pair.engine pair in
  let ny = Pair.pop_ny pair and la = Pair.pop_la pair in
  let sent = ref 0 in
  Gc.full_major ();
  let before = Gc.quick_stat () in
  let t0 = Tango_sim.Engine.now engine in
  Pair.start_measurement pair ~probe_interval_s:0.01 ~for_s:horizon_s ();
  Tango_workload.Traffic.periodic engine ~interval_s:(1.0 /. 2000.0)
    ~until_s:(t0 +. horizon_s) (fun _ ->
      ignore (Pop.send_app ny ());
      incr sent);
  Tango_sim.Engine.run ~until:(t0 +. horizon_s +. 1.0) engine;
  let app = Series.stats (Pop.app_latency_series la) in
  let means =
    List.init (Pop.path_count la) (fun path ->
        (Series.stats (Pop.inbound_owd_series la ~path)).Tango_sim.Stats.mean)
  in
  let after = Gc.quick_stat () in
  Alcotest.(check bool) "summaries read" true
    (app.Tango_sim.Stats.n = !sent && List.for_all Float.is_finite means);
  Tango_obs.Metric.set_enabled was;
  let received = Pop.app_received la in
  Alcotest.(check int) "every app packet delivered" !sent received;
  let per_packet words = words /. float_of_int received in
  let minor = per_packet (after.Gc.minor_words -. before.Gc.minor_words)
  and major = per_packet (after.Gc.major_words -. before.Gc.major_words) in
  (* Read 298.0 minor and 30.4 major words: each bound is that plus at
     most 3%, and bounds only move down. *)
  if minor > 306.0 then
    Alcotest.failf "%.1f minor words per app packet, want <= 306" minor;
  if major > 31.0 then
    Alcotest.failf "%.1f major words per app packet, want <= 31" major

let test_pop_unwired_rejected () =
  let pair = Pair.setup_vultr ~seed:5 () in
  let la = Pair.pop_la pair in
  let lone =
    Pop.create ~node:(Pop.node la) ~fabric:(Pair.fabric pair)
      ~plan:(Pop.plan la) ~remote_plan:(Pop.remote_plan la)
      ~outbound_paths:(Pair.paths_to_ny pair) ~policy:(Policy.Static 0) ()
  in
  Alcotest.check_raises "send before wire"
    (Invalid_argument "Pop: not wired to a peer (call Pop.wire)") (fun () ->
      ignore (Pop.send_app lone ()));
  Alcotest.(check int) "nothing entered the fabric" 0
    (Tango_dataplane.Fabric.sent (Pair.fabric pair))

(* Enterprise sites 1..n, each dual-homed to two peering ISPs (5 ms to
   ISP A, 9 ms to ISP B) that honor action communities: two paths
   between every pair of sites. *)
let dual_homed_sites n =
  let topo = Tango_topo.Topology.create () in
  let add id name = Tango_topo.Topology.add_node topo ~id ~asn:id name in
  add 100 "isp-a";
  add 200 "isp-b";
  Tango_topo.Topology.connect_peers topo 100 200
    ~link:(Tango_topo.Link.v 1.0) ();
  for i = 1 to n do
    Tango_topo.Topology.add_node topo ~id:i ~asn:(64511 + i) ~private_asn:true
      (Printf.sprintf "site%d" i);
    Tango_topo.Topology.connect topo ~provider:100 ~customer:i
      ~link:(Tango_topo.Link.v 5.0) ();
    Tango_topo.Topology.connect topo ~provider:200 ~customer:i
      ~link:(Tango_topo.Link.v 9.0) ()
  done;
  let site node = { Pair.node; policy = Pair.default_policy; clock_offset_ns = 0L } in
  Pair.setup ~seed:31 ~topo
    ~configure:(fun _ ->
      { Tango_bgp.Network.no_overrides with interprets_actions = Some true })
    (Array.init n (fun i -> site (i + 1)))

let test_pair_generic_topology () =
  (* The generic setup works on any topology: two dual-homed enterprise
     sites (the paper's ASX/ASY motivating case, but multi-homed), with
     providers that honor action communities. *)
  let pair = dual_homed_sites 2 in
  (* Both directions expose the ISP-A path (10 ms) and the ISP-B path
     (18 ms). *)
  Alcotest.(check int) "two paths" 2 (List.length (Pair.paths_to_ny pair));
  Pair.start_measurement pair ~for_s:5.0 ();
  Pair.run_for pair 6.0;
  let b = Pair.pop_ny pair in
  let mean path =
    (Series.stats (Pop.inbound_owd_series b ~path)).Tango_sim.Stats.mean
  in
  Alcotest.(check bool) "fast path ~10ms" true (abs_float (mean 0 -. 10.0) < 0.5);
  Alcotest.(check bool) "slow path ~18ms" true (abs_float (mean 1 -. 18.0) < 0.5)

(* The address plan every golden depends on: site i's slice holds its
   host prefix, then one tunnel prefix per path of each peer's traffic
   to i, peers in index order. *)
let prefixes plan = plan.Addressing.host_prefix :: plan.Addressing.tunnel_prefixes
let prefix_strings l = List.map Prefix.to_string l

let test_address_plan_vultr () =
  let pair = Pair.setup_vultr ~seed:5 () in
  let carved ~site ~paths_to =
    Addressing.carve ~block:Addressing.default_block ~site_index:site
      ~path_count:(List.length paths_to)
  in
  List.iter
    (fun (site, paths_to, pop) ->
      let want = prefix_strings (prefixes (carved ~site ~paths_to)) in
      Alcotest.(check (list string))
        (Printf.sprintf "site %d slice" site)
        want
        (prefix_strings (prefixes (Pair.plan pair ~site)));
      Alcotest.(check (list string))
        (Printf.sprintf "site %d PoP plan" site)
        want
        (prefix_strings (prefixes (Pop.plan pop))))
    [
      (0, Pair.paths_to_la pair, Pair.pop_la pair);
      (1, Pair.paths_to_ny pair, Pair.pop_ny pair);
    ]

let test_address_plan_triangle () =
  let overlay = Overlay.setup_triangle ~seed:21 () in
  let pair = Overlay.pair overlay in
  let net = Pair.network pair in
  let nodes = [| Vultr.server_la; Vultr.server_ny; Vultr.server_chi |] in
  let all = List.concat_map (fun site -> prefixes (Pair.plan pair ~site)) [ 0; 1; 2 ] in
  Alcotest.(check int) "all prefixes distinct" (List.length all)
    (List.length (List.sort_uniq String.compare (prefix_strings all)));
  for site = 0 to 2 do
    let plan = Pair.plan pair ~site in
    let slice = List.init 16 (fun i -> Prefix.subnet Addressing.default_block 16 ((16 * site) + i)) in
    List.iter
      (fun p ->
        Alcotest.(check bool)
          (Printf.sprintf "%s inside site %d's slice" (Prefix.to_string p) site)
          true
          (List.exists (Prefix.equal p) slice))
      (prefixes plan);
    let inbound =
      List.fold_left
        (fun acc peer ->
          if peer = site then acc
          else acc + List.length (Pair.paths pair ~src:peer ~dst:site))
        0 [ 0; 1; 2 ]
    in
    Alcotest.(check int)
      (Printf.sprintf "site %d tunnel count" site)
      inbound
      (List.length plan.Addressing.tunnel_prefixes)
  done;
  for src = 0 to 2 do
    for dst = 0 to 2 do
      if src <> dst then begin
        let pop = Pair.pop pair ~src ~dst in
        let announced = (Pair.plan pair ~site:dst).Addressing.tunnel_prefixes in
        for path = 0 to Pop.path_count pop - 1 do
          let ep = Addressing.tunnel_endpoint (Pop.remote_plan pop) ~path in
          let ctx = Printf.sprintf "PoP %d->%d path %d" src dst path in
          Alcotest.(check bool) (ctx ^ " endpoint in a peer prefix") true
            (List.exists (fun p -> Prefix.mem p ep) announced);
          match Tango_bgp.Network.forwarding_path net ~from_node:nodes.(src) ep with
          | Some route ->
              Alcotest.(check int) (ctx ^ " routes to the peer") nodes.(dst)
                (List.nth route (List.length route - 1))
          | None -> Alcotest.failf "%s: endpoint unroutable" ctx
        done
      end
    done
  done

let test_address_plan_overflow () =
  (* Nine dual-homed sites: each receives 8 peers x 2 paths = 16 tunnel
     prefixes, one more than a site slice holds. *)
  Alcotest.check_raises "16 tunnel prefixes rejected"
    (Invalid_argument "Addressing.carve: path_count 16 outside [0,15]")
    (fun () -> ignore (dual_homed_sites 9))

(* ------------------------------------------------------------------ *)
(* Stream transport                                                    *)

let test_stream_invalid_args () =
  let pair = Pair.setup_vultr ~seed:30 () in
  Alcotest.(check bool) "zero segments" true
    (try
       ignore
         (Stream.start ~sender:(Pair.pop_ny pair) ~receiver:(Pair.pop_la pair)
            ~total_segments:0 ());
       false
     with Invalid_argument _ -> true)

let test_pop_bounds () =
  let pair = Pair.setup_vultr ~seed:32 () in
  let la = Pair.pop_la pair in
  Alcotest.(check bool) "bad path label" true
    (try ignore (Pop.path_label la 9); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad series path" true
    (try ignore (Pop.inbound_owd_series la ~path:(-1)); false
     with Invalid_argument _ -> true)

let test_config_parse_file_missing () =
  match Config.parse_file "/nonexistent/tango.conf" with
  | Ok _ -> Alcotest.fail "read a missing file"
  | Error _ -> ()

let test_stream_basic_transfer () =
  let pair = Pair.setup_vultr ~seed:8 () in
  Pair.start_measurement pair ~for_s:30.0 ();
  (* Windowed transfer NY -> LA pinned on GTT (path 2). *)
  let stream =
    Stream.start ~sender:(Pair.pop_ny pair) ~receiver:(Pair.pop_la pair)
      ~route:(`Path 2) ~total_segments:500 ()
  in
  Pair.run_for pair 31.0;
  Alcotest.(check bool) "finished" true (Stream.finished stream);
  Alcotest.(check int) "no loss, no retransmit" 0 (Stream.retransmissions stream);
  (* Window 32 of 1200 B over a ~56.8 ms RTT: ~5.4 Mb/s. *)
  let goodput = Stream.goodput_mbps stream in
  Alcotest.(check bool)
    (Printf.sprintf "plausible goodput (%.2f Mb/s)" goodput)
    true
    (goodput > 3.0 && goodput < 8.0)

let test_stream_recovers_from_blackhole () =
  (* A short outage on the pinned path: the stream must retransmit and
     still complete after the heal. *)
  let pair = Pair.setup_vultr ~seed:9 () in
  let engine = Pair.engine pair in
  let fabric = Pair.fabric pair in
  let t0 = Tango_sim.Engine.now engine in
  Pair.start_measurement pair ~for_s:40.0 ();
  let stream =
    Stream.start ~sender:(Pair.pop_ny pair) ~receiver:(Pair.pop_la pair)
      ~route:(`Path 2) ~total_segments:2000 ()
  in
  (* The transfer takes ~3.5 s; the outage hits it mid-flight. *)
  Tango_sim.Engine.schedule_at engine ~time:(t0 +. 0.3) (fun _ ->
      Tango_dataplane.Fabric.fail_link fabric ~from_node:Vultr.gtt
        ~to_node:Vultr.vultr_la);
  Tango_sim.Engine.schedule_at engine ~time:(t0 +. 2.3) (fun _ ->
      Tango_dataplane.Fabric.heal_link fabric ~from_node:Vultr.gtt
        ~to_node:Vultr.vultr_la);
  Pair.run_for pair 41.0;
  Alcotest.(check bool) "finished despite outage" true (Stream.finished stream);
  Alcotest.(check bool) "timeouts occurred" true (Stream.timeouts stream > 0);
  Alcotest.(check bool) "retransmissions occurred" true (Stream.retransmissions stream > 0);
  (* The two-second outage shows up as a head-of-line stall. *)
  Alcotest.(check bool) "stall spans the outage" true (Stream.max_stall_s stream > 1.5)

(* ------------------------------------------------------------------ *)
(* Pair integration                                                    *)

let test_pair_setup_paths () =
  let pair = Pair.setup_vultr () in
  Alcotest.(check (list string)) "LA->NY paths"
    [ "NTT"; "Telia"; "GTT"; "Cogent" ]
    (List.map (fun p -> p.Discovery.label) (Pair.paths_to_ny pair));
  Alcotest.(check (list string)) "NY->LA paths"
    [ "NTT"; "Telia"; "GTT"; "Level3" ]
    (List.map (fun p -> p.Discovery.label) (Pair.paths_to_la pair));
  Alcotest.(check int) "LA pop tunnels" 4 (Pop.path_count (Pair.pop_la pair));
  Alcotest.(check string) "label" "GTT" (Pop.path_label (Pair.pop_la pair) 2)

let measured_pair () =
  let pair = Pair.setup_vultr ~seed:3 () in
  Pair.start_measurement pair ~for_s:10.0 ();
  Pair.run_for pair 10.5;
  pair

(* [f ()] with the obs counters recording from zero, then the value of
   each counter in [names]: how a run reports its probes and reports. *)
let counted f names =
  let module Metric = Tango_obs.Metric in
  Metric.reset_values ();
  Metric.set_enabled true;
  let result = Fun.protect ~finally:(fun () -> Metric.set_enabled false) f in
  let value name =
    match List.find_opt (fun v -> String.equal v.Metric.name name) (Metric.views ()) with
    | Some { Metric.value = Metric.Counter_value n; _ } -> n
    | Some _ | None -> Alcotest.failf "no counter %s" name
  in
  (result, List.map value names)

let test_pair_measurement_plane () =
  let pair = measured_pair () in
  let ny = Pair.pop_ny pair in
  (* ~100 Hz probes per path for 10 s; path 0 additionally carries the
     peer reports, which are measured too (Tango measures on all data
     packets, not just probes). *)
  for path = 0 to 3 do
    let n = Series.length (Pop.inbound_owd_series ny ~path) in
    Alcotest.(check bool)
      (Printf.sprintf "path %d sample count (%d)" path n)
      true
      (n > 900 && n < 1250)
  done;
  (* Relative OWDs survive the deliberately skewed clocks: the paper's
     headline 30% gap shows up as an 8.4 ms NTT-GTT difference. *)
  let mean path = (Series.stats (Pop.inbound_owd_series ny ~path)).Tango_sim.Stats.mean in
  let ntt = mean 0 and telia = mean 1 and gtt = mean 2 in
  Alcotest.(check bool) "NTT - GTT = 8.4ms" true (abs_float (ntt -. gtt -. 8.4) < 0.3);
  Alcotest.(check bool) "Telia - GTT = 3ms" true (abs_float (telia -. gtt -. 3.0) < 0.3);
  (* The absolute values are skew-shifted (LA clock +37ms, NY -12ms). *)
  Alcotest.(check bool) "absolute OWD shows skew" true (gtt < 0.0);
  (* No loss on quiet paths: NY's trackers report none back to LA. *)
  Array.iteri
    (fun path (s : Policy.path_stats) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "path %d no loss" path) 0.0 s.Policy.loss_rate)
    (Pop.outbound_stats (Pair.pop_la pair))

let test_pair_reports_flow () =
  let pair, reports = counted measured_pair [ "pop_reports_received_total" ] in
  let la = Pair.pop_la pair in
  Alcotest.(check bool) "reports received" true (List.hd reports > 50);
  let outbound = Pop.outbound_stats la in
  Alcotest.(check int) "four paths reported" 4 (Array.length outbound);
  Array.iter
    (fun (s : Policy.path_stats) ->
      Alcotest.(check bool) "stats populated" true (s.Policy.samples > 0))
    outbound

let test_pair_policy_converges_to_gtt () =
  let pair = Pair.setup_vultr ~seed:4 () in
  Pair.start_measurement pair ~for_s:20.0 ();
  let la = Pair.pop_la pair in
  let engine = Pair.engine pair in
  let t0 = Tango_sim.Engine.now engine in
  let chosen_late = ref [] in
  Tango_workload.Traffic.periodic engine ~interval_s:0.05 ~until_s:(t0 +. 20.0)
    (fun e ->
      let path = Pop.send_app la () in
      if Tango_sim.Engine.now e > t0 +. 5.0 then chosen_late := path :: !chosen_late);
  Pair.run_for pair 21.0;
  Alcotest.(check bool) "app packets sent" true (!chosen_late <> []);
  List.iter
    (fun path -> Alcotest.(check int) "GTT chosen after warmup" 2 path)
    !chosen_late;
  let ny = Pair.pop_ny pair in
  Alcotest.(check bool) "app packets received" true (Pop.app_received ny > 300);
  (* True end-to-end latency of the GTT path: ~28.4 ms (clock-free). *)
  let app = Series.stats (Pop.app_latency_series ny) in
  Alcotest.(check bool) "app latency near 28ms" true
    (app.Tango_sim.Stats.p50 > 0.027 && app.Tango_sim.Stats.p50 < 0.031)

let test_pair_silent_blackhole_failover () =
  let pair =
    Pair.setup_vultr ~seed:5
      ~policy_ny:(Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 2.0 })
      ()
  in
  let engine = Pair.engine pair in
  let ny = Pair.pop_ny pair and la = Pair.pop_la pair in
  let fabric = Pair.fabric pair in
  let t0 = Tango_sim.Engine.now engine in
  Pair.start_measurement pair ~for_s:20.0 ();
  let sent = ref 0 in
  Tango_workload.Traffic.periodic engine ~interval_s:0.02 ~until_s:(t0 +. 20.0)
    (fun _ ->
      incr sent;
      ignore (Pop.send_app ny ()));
  (* The adaptive sender converges onto GTT; blackhole it silently. *)
  Tango_sim.Engine.schedule_at engine ~time:(t0 +. 8.0) (fun _ ->
      Tango_dataplane.Fabric.fail_link fabric ~from_node:Vultr.gtt
        ~to_node:Vultr.vultr_la);
  Pair.run_for pair 21.0;
  let lost = !sent - Pop.app_received la in
  Alcotest.(check bool) "sender evacuated" true (Pop.policy_switches ny >= 2);
  (* Outage lasts 12 s of a 20 s run; without failover ~60% would die. *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded loss (%d/%d)" lost !sent)
    true
    (float_of_int lost /. float_of_int !sent < 0.25);
  Alcotest.(check bool) "traffic kept flowing" true (Pop.app_received la > 700)

let test_pair_probe_accounting () =
  match counted measured_pair [ "pop_probes_sent_total"; "pop_probes_received_total" ] with
  | _, [ sent; received ] ->
      Alcotest.(check bool) "probes sent" true (sent > 3500);
      (* Every probe sent arrived (no loss configured). *)
      Alcotest.(check int) "all probes delivered" sent received
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Config DSL                                                          *)

let sample_config =
  {|
# Tango deployment
block 2001:db8:4000::/34;

measurement {
  probe-interval 0.02;
  report-interval 0.2;
}

site "LA" {
  clock-offset-ns 37000000;
  policy lowest-owd { hysteresis-ms 2.0; dwell-s 3.0; }
}

site "NY" {
  clock-offset-ns -12000000;
  policy jitter-aware { beta 4.0; hysteresis-ms 1.5; dwell-s 2.5; }
}
|}

(* Parse [text] the way the CLI does: from a file. *)
let parse_config text =
  let path = Filename.temp_file "tango" ".conf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Config.parse_file path)

let test_config_parse () =
  match parse_config sample_config with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok cfg ->
      Alcotest.(check (float 1e-9)) "probe" 0.02 cfg.Config.probe_interval_s;
      Alcotest.(check (float 1e-9)) "report" 0.2 cfg.Config.report_interval_s;
      Alcotest.(check int) "two sites" 2 (List.length cfg.Config.sites);
      let ny = List.find (fun s -> s.Config.name = "NY") cfg.Config.sites in
      Alcotest.(check int64) "offset" (-12_000_000L) ny.Config.clock_offset_ns;
      (match ny.Config.policy with
      | Policy.Jitter_aware { beta; hysteresis_ms; min_dwell_s } ->
          Alcotest.(check (float 1e-9)) "beta" 4.0 beta;
          Alcotest.(check (float 1e-9)) "hysteresis" 1.5 hysteresis_ms;
          Alcotest.(check (float 1e-9)) "dwell" 2.5 min_dwell_s
      | _ -> Alcotest.fail "wrong policy parsed")

let test_config_roundtrip () =
  match parse_config sample_config with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok cfg -> (
      match parse_config (Config.to_string cfg) with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok cfg' -> Alcotest.(check bool) "roundtrip equal" true (cfg = cfg'))

let test_config_defaults () =
  let lowest_owd = Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 1.0 } in
  let default =
    {
      Config.block = Addressing.default_block;
      probe_interval_s = 0.01;
      report_interval_s = 0.1;
      sites =
        [
          { Config.name = "LA"; clock_offset_ns = 37_000_000L; policy = lowest_owd };
          { Config.name = "NY"; clock_offset_ns = -12_000_000L; policy = lowest_owd };
        ];
    }
  in
  match parse_config "" with
  | Error e -> Alcotest.failf "empty config should parse: %s" e
  | Ok cfg -> Alcotest.(check bool) "defaults" true (cfg = default)

let contains ~needle s =
  let n = String.length needle in
  let rec search i =
    i + n <= String.length s && (String.sub s i n = needle || search (i + 1))
  in
  search 0

let test_config_errors () =
  let expect_error ~needle text =
    match parse_config text with
    | Ok _ -> Alcotest.failf "accepted bad config %S" text
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S mentions %S" e needle)
          true (contains ~needle e)
  in
  expect_error ~needle:"unknown directive" "frobnicate 3;";
  expect_error ~needle:"line 3" "block 2001:db8::/34;\nmeasurement { probe-interval 0.01; }\nbogus;";
  expect_error ~needle:"duplicate site" "site \"LA\" { }\nsite \"LA\" { }";
  expect_error ~needle:"unterminated" "site \"LA ";
  expect_error ~needle:"unknown policy" "site \"LA\" { policy teleport; }";
  expect_error ~needle:"unknown setting" "measurement { cadence 5; }";
  expect_error ~needle:"not an IP address" "block 10.0.0.0/8;";
  expect_error ~needle:"bad prefix length" "block 2001:db8:4000::/0x22;";
  (* Numbers are held to the CLI's bounds. *)
  List.iter
    (fun (needle, text) -> expect_error ~needle text)
    [
      ("report-interval must be a positive finite number", "measurement { report-interval nan; }");
      ("probe-interval must be a positive finite number", "measurement { probe-interval inf; }");
      ("probe-interval must be a positive finite number", "measurement { probe-interval 0; }");
      ("clock-offset-ns must be an integer", "site \"LA\" { clock-offset-ns 1e30; }");
      ("clock-offset-ns must be an integer", "site \"LA\" { clock-offset-ns 0.5; }");
      ("non-negative integer", "site \"LA\" { policy static 2.7; }");
      ("non-negative integer", "site \"LA\" { policy static -1; }");
      ("hysteresis-ms must be a non-negative finite number",
        "site \"LA\" { policy lowest-owd { hysteresis-ms -5; } }");
      ("dwell-s must be a non-negative finite number",
        "site \"LA\" { policy lowest-owd { dwell-s nan; } }");
      ("beta must be a non-negative finite number",
        "site \"LA\" { policy jitter-aware { beta inf; } }");
    ]

let test_config_apply () =
  match parse_config sample_config with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok cfg -> (
      match Config.apply_vultr cfg with
      | Error e -> Alcotest.failf "apply failed: %s" e
      | Ok pair ->
          Alcotest.(check int) "pair is set up" 4
            (Pop.path_count (Pair.pop_la pair));
          let probe, report = Config.measurement_args cfg in
          Alcotest.(check (float 1e-9)) "probe arg" 0.02 probe;
          Alcotest.(check (float 1e-9)) "report arg" 0.2 report)

let test_config_apply_rejects_other_block () =
  let text =
    "block 2001:db8:8000::/34;\nsite \"LA\" { }\nsite \"NY\" { }"
  in
  match parse_config text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok cfg -> (
      match Config.apply_vultr cfg with
      | Ok _ -> Alcotest.fail "applied a config whose block it ignores"
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S names the block" e)
            true
            (contains ~needle:"2001:db8:8000::/34" e))

(* [static 99] parses, but the LA site discovered four paths. *)
let test_config_apply_rejects_unknown_static () =
  match parse_config "site \"LA\" { policy static 99; }\nsite \"NY\" { }" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok cfg -> (
      match Config.apply_vultr cfg with
      | Ok _ -> Alcotest.fail "applied a static path that was never discovered"
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S names the path" e)
            true
            (contains ~needle:"static path 99" e))

let test_config_apply_needs_both_sites () =
  match parse_config "site \"LA\" { }" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok cfg -> (
      match Config.apply_vultr cfg with
      | Ok _ -> Alcotest.fail "applied one-site config"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Mesh: live Tango-of-N                                               *)

let test_mesh_setup () =
  let mesh = Overlay.setup_triangle ~seed:21 () in
  let pair = Overlay.pair mesh in
  Alcotest.(check (list string)) "three sites" [ "LA"; "NY"; "CHI" ]
    (List.map Overlay.site_name [ 0; 1; 2 ]);
  (* LA<->NY keep their four paths; CHI pairs are single-homed per
     direction. *)
  Alcotest.(check int) "LA->NY paths" 4 (List.length (Pair.paths pair ~src:0 ~dst:1));
  Alcotest.(check int) "CHI->LA paths" 1 (List.length (Pair.paths pair ~src:2 ~dst:0));
  Alcotest.(check int) "NY->CHI paths" 1 (List.length (Pair.paths pair ~src:1 ~dst:2));
  Alcotest.(check bool) "pair lookup validates" true
    (try ignore (Overlay.measured_owd_ms mesh ~src:1 ~dst:1); false with Invalid_argument _ -> true)

let test_mesh_measurement_and_planning () =
  let mesh = Overlay.setup_triangle ~seed:22 () in
  let pair = Overlay.pair mesh in
  (* Before measurements: static floors drive planning. *)
  Overlay.replan mesh;
  Alcotest.(check bool) "CHI->LA relays via NY (floors)" true
    (Overlay.route mesh ~src:2 ~dst:0 = Overlay.Relay [ 1 ]);
  Alcotest.(check bool) "NY->CHI direct" true
    (Overlay.route mesh ~src:1 ~dst:2 = Overlay.Direct);
  Pair.start_measurement pair ~for_s:10.0 ();
  Pair.run_for pair 10.5;
  (* Live measurements agree with the calibration. *)
  Alcotest.(check bool) "NY->LA measured ~28" true
    (abs_float (Overlay.measured_owd_ms mesh ~src:1 ~dst:0 -. 28.0) < 1.0);
  Alcotest.(check bool) "CHI->LA measured ~60" true
    (abs_float (Overlay.measured_owd_ms mesh ~src:2 ~dst:0 -. 60.4) < 1.0);
  Overlay.replan mesh;
  Alcotest.(check bool) "relay survives live data" true
    (Overlay.route mesh ~src:2 ~dst:0 = Overlay.Relay [ 1 ])

let test_mesh_live_relay () =
  let mesh = Overlay.setup_triangle ~seed:23 () in
  let pair = Overlay.pair mesh in
  Pair.start_measurement pair ~for_s:15.0 ();
  Pair.run_for pair 3.0;
  Overlay.replan mesh;
  (* 100 app packets CHI -> LA over the planned (relayed) route. *)
  for _ = 1 to 100 do
    Overlay.send_app mesh ~src:2 ~dst:0 ()
  done;
  Pair.run_for pair 2.0;
  Alcotest.(check int) "all delivered at LA" 100 (Overlay.app_received_at mesh ~site:0);
  Alcotest.(check int) "NY relayed them" 100 (Overlay.transited_at mesh ~site:1);
  (* End-to-end latency spans both segments: ~38.5 ms, far below the
     60.4 ms direct detour. *)
  let lat = Overlay.app_latency_at mesh ~site:0 in
  Alcotest.(check bool)
    (Printf.sprintf "relayed latency ~38.5ms (got %.1f)" (lat.Tango_sim.Stats.p50 *. 1000.0))
    true
    (lat.Tango_sim.Stats.p50 > 0.036 && lat.Tango_sim.Stats.p50 < 0.041)

let test_mesh_replans_around_dead_relay () =
  (* The CHI->NY segment blackholes mid-run: the relay route through NY
     becomes useless and a replan must fall back to the (slow but alive)
     direct CHI->LA transit. *)
  let mesh = Overlay.setup_triangle ~seed:25 () in
  let pair = Overlay.pair mesh in
  Pair.start_measurement pair ~for_s:20.0 ();
  Pair.run_for pair 3.0;
  Overlay.replan mesh;
  Alcotest.(check bool) "initially relays" true
    (Overlay.route mesh ~src:2 ~dst:0 = Overlay.Relay [ 1 ]);
  (* Kill the link carrying CHI -> NY traffic (EastNet's handoff to the
     NY site); probes on that segment stop arriving, its stats go stale. *)
  let eastnet = 7018 in
  Tango_dataplane.Fabric.fail_link (Pair.fabric pair) ~from_node:eastnet
    ~to_node:Vultr.vultr_ny;
  Pair.run_for pair 6.0;
  Alcotest.(check bool) "segment now unusable" true
    (Overlay.measured_owd_ms mesh ~src:2 ~dst:1 = infinity);
  Overlay.replan mesh;
  Alcotest.(check bool) "replanned to direct" true
    (Overlay.route mesh ~src:2 ~dst:0 = Overlay.Direct)

let test_mesh_direct_unaffected () =
  let mesh = Overlay.setup_triangle ~seed:24 () in
  let pair = Overlay.pair mesh in
  Pair.start_measurement pair ~for_s:10.0 ();
  Pair.run_for pair 3.0;
  Overlay.replan mesh;
  for _ = 1 to 50 do
    Overlay.send_app mesh ~src:1 ~dst:0 ()
  done;
  Pair.run_for pair 1.0;
  Alcotest.(check int) "direct delivery" 50 (Overlay.app_received_at mesh ~site:0);
  Alcotest.(check int) "nothing relayed" 0 (Overlay.transited_at mesh ~site:2);
  let lat = Overlay.app_latency_at mesh ~site:0 in
  Alcotest.(check bool) "direct ~28ms" true
    (lat.Tango_sim.Stats.p50 > 0.027 && lat.Tango_sim.Stats.p50 < 0.030)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "tango_core"
    [
      ( "addressing",
        [
          tc "carve shape" `Quick test_carve_shape;
          tc "sites disjoint" `Quick test_carve_sites_disjoint;
          tc "limits" `Quick test_carve_limits;
          tc "endpoints" `Quick test_tunnel_endpoint_membership;
        ] );
      ( "discovery",
        [
          tc "LA->NY (Fig 3)" `Quick test_discovery_la_to_ny;
          tc "NY->LA (Fig 3)" `Quick test_discovery_ny_to_la;
          tc "withdraws probe" `Quick test_discovery_withdraws_probe;
          tc "max paths" `Quick test_discovery_max_paths;
          tc "poisoning mechanism" `Quick test_discovery_by_poisoning;
          tc "single-homed chain" `Quick test_discovery_single_homed_chain;
        ] );
      ( "policy",
        [
          tc "bgp default" `Quick test_policy_bgp_default;
          tc "static" `Quick test_policy_static;
          tc "lowest owd" `Quick test_policy_lowest_owd_switches;
          tc "hysteresis" `Quick test_policy_hysteresis_blocks_small_win;
          tc "dwell" `Quick test_policy_dwell_blocks_flapping;
          tc "jitter aware" `Quick test_policy_jitter_aware;
          tc "loss failover" `Quick test_policy_loss_failover;
          tc "staleness failover" `Quick test_policy_staleness_failover;
          tc "no failover without alternative" `Quick test_policy_no_failover_without_alternative;
          tc "fallback" `Quick test_policy_no_measurements_fallback;
        ] );
      ( "ecmp_map",
        [
          tc "cluster" `Quick test_ecmp_map_cluster;
          tc "cluster single" `Quick test_ecmp_map_cluster_single;
          tc "infer" `Quick test_ecmp_map_infer;
          tc "probe end-to-end" `Quick test_ecmp_map_probe_end_to_end;
        ] );
      ( "stream",
        [
          tc "invalid args" `Quick test_stream_invalid_args;
          tc "pop bounds" `Quick test_pop_bounds;
          tc "basic transfer" `Slow test_stream_basic_transfer;
          tc "recovers from blackhole" `Slow test_stream_recovers_from_blackhole;
        ] );
      ( "config",
        [
          tc "parse" `Quick test_config_parse;
          tc "roundtrip" `Quick test_config_roundtrip;
          tc "defaults" `Quick test_config_defaults;
          tc "errors" `Quick test_config_errors;
          tc "apply" `Quick test_config_apply;
          tc "apply needs both sites" `Quick test_config_apply_needs_both_sites;
          tc "apply rejects another block" `Quick test_config_apply_rejects_other_block;
          tc "apply rejects an undiscovered static path" `Quick
            test_config_apply_rejects_unknown_static;
          tc "parse_file missing" `Quick test_config_parse_file_missing;
        ] );
      ( "mesh",
        [
          tc "setup" `Quick test_mesh_setup;
          tc "measurement and planning" `Slow test_mesh_measurement_and_planning;
          tc "replans around dead relay" `Slow test_mesh_replans_around_dead_relay;
          tc "live relay" `Slow test_mesh_live_relay;
          tc "direct unaffected" `Slow test_mesh_direct_unaffected;
        ] );
      ( "pair",
        [
          tc "setup paths" `Quick test_pair_setup_paths;
          tc "measurement plane" `Slow test_pair_measurement_plane;
          tc "reports flow" `Slow test_pair_reports_flow;
          tc "policy converges to GTT" `Slow test_pair_policy_converges_to_gtt;
          tc "silent blackhole failover" `Slow test_pair_silent_blackhole_failover;
          tc "probe accounting" `Slow test_pair_probe_accounting;
          tc "generic topology" `Quick test_pair_generic_topology;
          tc "pair-vultr job allocation" `Quick test_pair_vultr_alloc;
          tc "unwired pop rejected" `Quick test_pop_unwired_rejected;
          tc "address plan (Vultr pair)" `Quick test_address_plan_vultr;
          tc "address plan (triangle)" `Quick test_address_plan_triangle;
          tc "address plan overflow" `Quick test_address_plan_overflow;
        ] );
    ]
