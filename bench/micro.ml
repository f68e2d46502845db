(* Bechamel microbenchmarks for the per-packet hot paths: what a real
   Tango switch/eBPF program executes on every packet. Each op is
   measured against the monotonic clock and both GC allocation counters,
   so BENCH.json records ns/op alongside minor/major words/op — the
   regression surface for the zero-allocation fast path. *)

open Bechamel
open Toolkit

let ipv6 = Tango_net.Ipv6.of_string_exn "2001:db8:4000::1"

let ipv6_b = Tango_net.Ipv6.of_string_exn "2001:db8:4010::1"

let flow =
  Tango_net.Flow.v ~src:ipv6 ~dst:ipv6_b ~proto:17 ~src_port:40000 ~dst_port:4789

let tango_header =
  { Tango_net.Packet.timestamp_ns = 123456789L; seq = 42L; path_id = 2; flags = 0 }

let payload = Bytes.make 512 'x'

let frame =
  Tango_net.Wire.encode_tunnel ~outer_src:ipv6 ~outer_dst:ipv6_b ~udp_src:40000
    ~udp_dst:4789 ~tango:tango_header payload

let test_encode =
  Test.make ~name:"wire.encode_tunnel (512B)"
    (Staged.stage (fun () ->
         ignore
           (Tango_net.Wire.encode_tunnel ~outer_src:ipv6 ~outer_dst:ipv6_b
              ~udp_src:40000 ~udp_dst:4789 ~tango:tango_header payload)))

let test_encode_into =
  let buf = Bytes.create (Tango_net.Wire.max_frame_bytes ~payload_bytes:512) in
  Test.make ~name:"wire.encode_tunnel_into (512B reused buf)"
    (Staged.stage (fun () ->
         ignore
           (Tango_net.Wire.encode_tunnel_into ~outer_src:ipv6 ~outer_dst:ipv6_b
              ~udp_src:40000 ~udp_dst:4789 ~tango:tango_header ~buf payload)))

let test_decode =
  Test.make ~name:"wire.decode_tunnel (512B)"
    (Staged.stage (fun () -> ignore (Tango_net.Wire.decode_tunnel frame)))

let test_decode_into =
  let payload_buf = Bytes.create 2048 in
  Test.make ~name:"wire.decode_tunnel_into (512B reused buf)"
    (Staged.stage (fun () ->
         ignore (Tango_net.Wire.decode_tunnel_into ~payload:payload_buf frame)))

let test_hash =
  Test.make ~name:"flow.hash_5tuple"
    (Staged.stage (fun () -> ignore (Tango_net.Flow.hash_5tuple flow)))

let test_rolling =
  let rolling = Tango_telemetry.Rolling.create ~window_s:1.0 in
  let clock = ref 0.0 in
  Test.make ~name:"rolling.add (1s window @100Hz)"
    (Staged.stage (fun () ->
         clock := !clock +. 0.01;
         Tango_telemetry.Rolling.add rolling ~time:!clock 28.0))

let test_jitter =
  let jitter = Tango_telemetry.Jitter.create () in
  let clock = ref 0.0 in
  Test.make ~name:"jitter.add"
    (Staged.stage (fun () ->
         clock := !clock +. 0.01;
         Tango_telemetry.Jitter.add jitter ~time:!clock 28.0))

(* A constant sample never moves a window's sums; a live path's OWD
   does. The noisy rows feed one fixed trace at 100 Hz of virtual time,
   drawn once: mean 28 ms, std 0.3 ms, 5 ms higher in its second half
   (a level step every 20.48 s as the trace repeats). *)
let noisy_owd =
  let rng = Tango_sim.Rng.create ~seed:28 in
  Array.init 4096 (fun i ->
      Tango_sim.Rng.gaussian rng ~mean:28.0 ~std:0.3 +. if i >= 2048 then 5.0 else 0.0)

let noisy_row name add =
  let clock = ref 0.0 and i = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         clock := !clock +. 0.01;
         add ~time:!clock noisy_owd.(!i land 4095);
         incr i))

let test_jitter_noisy =
  noisy_row "jitter.add (noisy OWD)" (Tango_telemetry.Jitter.add (Tango_telemetry.Jitter.create ()))

let test_detect_noisy =
  noisy_row "detect.add (noisy OWD)" (Tango_telemetry.Detect.add (Tango_telemetry.Detect.create ()))

let test_tracker =
  let tracker = Tango_dataplane.Seq_tracker.create () in
  let seq = ref 0L in
  Test.make ~name:"seq_tracker.observe"
    (Staged.stage (fun () ->
         Tango_dataplane.Seq_tracker.observe tracker !seq;
         seq := Int64.add !seq 1L))

(* The event engine in steady state with 1024 events pending, about
   what one mesh-64 engine holds: each op schedules one event (a reused
   callback, a delay from a fixed ring) and fires the earliest. *)
let test_engine =
  let engine = Tango_sim.Engine.create ~seed:1 () in
  let rng = Tango_sim.Rng.create ~seed:1 in
  let delays = Array.init 1024 (fun _ -> Tango_sim.Rng.float rng 1.0) in
  let tick (_ : Tango_sim.Engine.t) = () in
  Array.iter (fun delay -> Tango_sim.Engine.schedule engine ~delay tick) delays;
  let i = ref 0 in
  Test.make ~name:"engine schedule+step (1024 pending)"
    (Staged.stage (fun () ->
         i := (!i + 1) land 1023;
         Tango_sim.Engine.schedule engine ~delay:delays.(!i) tick;
         ignore (Tango_sim.Engine.step engine)))

let test_rng =
  let rng = Tango_sim.Rng.create ~seed:2 in
  Test.make ~name:"rng.gaussian"
    (Staged.stage (fun () -> ignore (Tango_sim.Rng.gaussian rng ~mean:0.0 ~std:1.0)))

let siphash_key = Tango_net.Siphash.key 0x0706050403020100L 0x0f0e0d0c0b0a0908L

let siphash_message = Bytes.make 56 '\x42'

let test_siphash =
  Test.make ~name:"siphash-2-4 (56B shim message)"
    (Staged.stage (fun () -> ignore (Tango_net.Siphash.mac siphash_key siphash_message)))

let auth_frame =
  Tango_net.Wire.encode_tunnel ~auth_key:siphash_key ~outer_src:ipv6
    ~outer_dst:ipv6_b ~udp_src:40000 ~udp_dst:4789 ~tango:tango_header payload

let test_auth_decode =
  Test.make ~name:"wire.decode_tunnel authenticated (512B)"
    (Staged.stage (fun () ->
         ignore (Tango_net.Wire.decode_tunnel ~auth_key:siphash_key auth_frame)))

(* Path selection, uncached vs cached: the full policy scoring pass over
   8 candidate paths against the O(1) per-flow decision-cache hit that
   replaces it within a flow epoch. *)

let path_stats =
  Array.init 8 (fun i ->
      {
        Tango.Policy.path_id = i;
        owd_ewma_ms = 28.0 +. float_of_int i;
        jitter_ms = 0.1 *. float_of_int i;
        loss_rate = 0.0;
        age_s = 0.05;
        samples = 1000;
      })

let test_policy_uncached =
  let policy =
    Tango.Policy.create
      (Tango.Policy.Jitter_aware { beta = 5.0; hysteresis_ms = 1.0; min_dwell_s = 2.0 })
  in
  let clock = ref 0.0 in
  Test.make ~name:"policy.choose uncached (8 paths)"
    (Staged.stage (fun () ->
         clock := !clock +. 0.001;
         ignore (Tango.Policy.choose policy ~now_s:!clock path_stats)))

let test_flow_cache_hit =
  let cache = Tango_dataplane.Flow_cache.create () in
  let hash = Tango_net.Flow.hash_5tuple flow in
  Tango_dataplane.Flow_cache.store cache ~flow_hash:hash 3;
  Test.make ~name:"policy.choose cached (flow-cache hit)"
    (Staged.stage (fun () ->
         ignore (Tango_dataplane.Flow_cache.find cache ~flow_hash:hash)))

(* Observability primitives (lib/obs): the cost a metric or trace call
   adds to an instrumented hot path, with recording on and off. Each op
   toggles the process-wide switch itself (two plain bool stores) so the
   global state is left off for every other benchmark. *)

module Obs_metric = Tango_obs.Metric
module Obs_trace = Tango_obs.Trace

let obs_counter = Obs_metric.counter ~help:"bench counter" "bench_obs_incr_total"

let obs_gauge = Obs_metric.gauge ~help:"bench gauge" "bench_obs_gauge"

let obs_hist =
  Obs_metric.histogram ~help:"bench histogram" "bench_obs_seconds"

let obs_ring = Obs_trace.create ~capacity:4096 ()

let obs_kind = Obs_trace.kind "bench.event"

let test_obs_incr_on =
  Test.make ~name:"obs.metric.incr (recording on)"
    (Staged.stage (fun () ->
         Obs_metric.set_enabled true;
         Obs_metric.incr obs_counter;
         Obs_metric.set_enabled false))

let test_obs_incr_off =
  Test.make ~name:"obs.metric.incr (recording off)"
    (Staged.stage (fun () ->
         Obs_metric.set_enabled false;
         Obs_metric.incr obs_counter))

let test_obs_gauge_on =
  let clock = ref 0.0 in
  Test.make ~name:"obs.metric.set gauge (recording on)"
    (Staged.stage (fun () ->
         clock := !clock +. 0.01;
         Obs_metric.set_enabled true;
         Obs_metric.set obs_gauge !clock;
         Obs_metric.set_enabled false))

let test_obs_observe_on =
  let clock = ref 0.0 in
  Test.make ~name:"obs.metric.observe histogram (recording on)"
    (Staged.stage (fun () ->
         clock := !clock +. 1e-6;
         Obs_metric.set_enabled true;
         Obs_metric.observe obs_hist !clock;
         Obs_metric.set_enabled false))

let test_obs_trace_on =
  let clock = ref 0.0 in
  Test.make ~name:"obs.trace.record (recording on)"
    (Staged.stage (fun () ->
         clock := !clock +. 0.01;
         Obs_metric.set_enabled true;
         Obs_trace.record obs_ring ~now:!clock ~kind:obs_kind 7 11;
         Obs_metric.set_enabled false))

let test_tracker_instrumented =
  let tracker = Tango_dataplane.Seq_tracker.create () in
  let seq = ref 0L in
  Test.make ~name:"seq_tracker.observe (recording on)"
    (Staged.stage (fun () ->
         Obs_metric.set_enabled true;
         Tango_dataplane.Seq_tracker.observe tracker !seq;
         Obs_metric.set_enabled false;
         seq := Int64.add !seq 1L))

let test_decision =
  let route i =
    Tango_bgp.Route.make
      ~prefix:(Tango_net.Prefix.of_string_exn "2001:db8::/48")
      ~path:(Tango_bgp.As_path.of_list [ 2914 + i; 20473 ])
      ~next_hop:i ~learned_from:i ()
  in
  let candidates = List.init 8 route in
  Test.make ~name:"bgp decision (8 candidates)"
    (Staged.stage (fun () -> ignore (Tango_bgp.Decision.best candidates)))

(* The forwarding-table lookup behind the event-driven fabric's hop
   memo ([Fabric.next_hop] on a miss), on the paper's Vultr world after
   set-up: every loc-RIB holds both sites' host and tunnel prefixes, 10
   in all. The address is NY's last tunnel endpoint, the last of the 10
   in scan order, so one op is a full forwarding-table scan. The world
   is built when the benchmark runs, not when the harness starts. *)
let vultr_route_probe () =
  let pair = Tango.Pair.setup_vultr () in
  let net = Tango.Pair.network pair in
  let node = Tango_topo.Vultr.server_la in
  let ny =
    Tango.Addressing.carve ~block:Tango.Addressing.default_block ~site_index:1
      ~path_count:(List.length (Tango.Pair.paths_to_ny pair))
  in
  let dst =
    Tango.Addressing.tunnel_endpoint ny
      ~path:(List.length ny.Tango.Addressing.tunnel_prefixes - 1)
  in
  let rib = Tango_bgp.Speaker.loc_rib (Tango_bgp.Network.speaker net node) in
  assert (List.length rib = 10);
  assert (Option.is_some (Tango_bgp.Network.route_for_addr net ~node dst));
  (net, node, dst)

let test_route_for_addr =
  Test.make_with_resource
    ~name:"network.route_for_addr (Vultr loc-RIB, 10 prefixes)" Test.uniq
    ~allocate:vultr_route_probe ~free:ignore
    (Staged.stage (fun (net, node, dst) ->
         ignore (Tango_bgp.Network.route_for_addr net ~node dst)))

(* The event path's per-hop step ([Fabric.next_hop]) on the same world:
   after the first call the pair sits in the node's memo row, so one op
   is a revision check and an identity read of the row — no table scan
   and nothing allocated. *)
let test_next_hop =
  Test.make_with_resource ~name:"fabric next_hop (Vultr, memo hit)" Test.uniq
    ~allocate:(fun () ->
      let net, node, dst = vultr_route_probe () in
      let fabric = Tango_dataplane.Fabric.create net in
      assert (Tango_dataplane.Fabric.next_hop fabric ~node dst >= 0);
      (fabric, node, dst))
    ~free:ignore
    (Staged.stage (fun (fabric, node, dst) ->
         ignore (Tango_dataplane.Fabric.next_hop fabric ~node dst)))

(* The per-packet fault hook (lib/faults): fault-free fabrics must pay
   exactly one load and one branch, and even the active case stays
   allocation-free. A two-node toy topology keeps the flat link arrays
   tiny without changing what is measured. *)
let fault_fabric =
  let engine = Tango_sim.Engine.create ~seed:7 () in
  let topo = Tango_topo.Topology.create () in
  Tango_topo.Topology.add_node topo ~id:0 ~asn:64512 "a";
  Tango_topo.Topology.add_node topo ~id:1 ~asn:64513 "b";
  Tango_topo.Topology.connect topo ~provider:0 ~customer:1 ();
  Tango_dataplane.Fabric.create (Tango_bgp.Network.create topo engine)

let constant_fault_extra ~time_s:_ = 2.5

let test_fault_check_inactive =
  Test.make ~name:"fabric.fault_check (inactive)"
    (Staged.stage (fun () ->
         ignore
           (Tango_dataplane.Fabric.link_fault_extra_ms fault_fabric
              ~from_node:0 ~to_node:1 ~time_s:1.0)))

let test_fault_check_active =
  let fabric =
    let engine = Tango_sim.Engine.create ~seed:7 () in
    let topo = Tango_topo.Topology.create () in
    Tango_topo.Topology.add_node topo ~id:0 ~asn:64512 "a";
    Tango_topo.Topology.add_node topo ~id:1 ~asn:64513 "b";
    Tango_topo.Topology.connect topo ~provider:0 ~customer:1 ();
    Tango_dataplane.Fabric.create (Tango_bgp.Network.create topo engine)
  in
  Tango_dataplane.Fabric.set_link_fault fabric ~from_node:0 ~to_node:1
    ~loss:0.1 ~extra_delay_ms:constant_fault_extra ();
  Test.make ~name:"fabric.fault_check (active)"
    (Staged.stage (fun () ->
         ignore
           (Tango_dataplane.Fabric.link_fault_extra_ms fabric ~from_node:0
              ~to_node:1 ~time_s:1.0)))

(* The batched per-lane packet path (lib/dataplane batch + fabric): one
   op = one 64-slot send_batch_direct over a converged plain route. The
   packet form with a delivery callback boxes each arrival time for the
   callback; the encap form, with no callback at a constant send time,
   is what every lane executes per flush in the throughput pipeline,
   and its words columns are its zero-allocation gate. *)
let batch_fabric, batch_packets, batch_encap =
  let engine = Tango_sim.Engine.create ~seed:9 () in
  let topo = Tango_topo.Topology.create () in
  Tango_topo.Topology.add_node topo ~id:0 ~asn:64512 "sender";
  Tango_topo.Topology.add_node topo ~id:1 ~asn:64513 "transit";
  Tango_topo.Topology.add_node topo ~id:2 ~asn:64514 "receiver";
  let plain = Tango_topo.Link.v ~jitter_ms:0.0 ~bandwidth_mbps:100_000.0 0.5 in
  Tango_topo.Topology.connect topo ~provider:1 ~customer:0 ~link:plain ();
  Tango_topo.Topology.connect topo ~provider:1 ~customer:2 ~link:plain ();
  let net = Tango_bgp.Network.create topo engine in
  Tango_bgp.Network.announce net ~node:2
    (Tango_net.Prefix.of_string_exn "2001:db8:100::/48")
    ();
  ignore (Tango_bgp.Network.converge net);
  let fabric = Tango_dataplane.Fabric.create net in
  let dst = Tango_net.Addr.of_string_exn "2001:db8:100::1" in
  assert (Tango_dataplane.Fabric.route_plain fabric ~from_node:0 ~dst);
  let batch = Tango_dataplane.Batch.create () in
  let bflow =
    Tango_net.Flow.v ~src:ipv6 ~dst ~proto:17 ~src_port:40000 ~dst_port:4789
  in
  for i = 0 to Tango_dataplane.Batch.capacity - 1 do
    Tango_dataplane.Batch.add batch
      (Tango_net.Packet.create ~id:i ~flow:bflow ~payload_bytes:512
         ~created_at:0.0 ())
  done;
  let encap = Tango_dataplane.Batch.create () in
  for i = 0 to Tango_dataplane.Batch.capacity - 1 do
    Tango_dataplane.Batch.encap encap ~dst ~bytes:512 ~path:0 ~flow:i ~seq:i
  done;
  (fabric, batch, encap)

let test_send_batch_direct =
  let now = ref 0.0 in
  let on_delivered_at ~node:_ ~at_s:_ _ = () in
  Test.make ~name:"fabric.send_batch_direct (64 pkts, plain)"
    (Staged.stage (fun () ->
         now := !now +. 1e-6;
         Tango_dataplane.Fabric.send_batch_direct batch_fabric ~from_node:0
           ~now_s:!now ~on_delivered_at batch_packets))

let test_send_batch_encap =
  Test.make ~name:"fabric.send_batch_direct (64 encap, plain)"
    (Staged.stage (fun () ->
         Tango_dataplane.Fabric.send_batch_direct batch_fabric ~from_node:0
           ~now_s:1.0 batch_encap))

(* Control-plane reconciliation hot read (lib/ctrl): the per-prefix
   churn classification. It runs on every cadence tick, so it must stay
   cheap. *)

let watch_baseline = Some (Tango_bgp.As_path.of_list [ 20473; 2914; 20473 ])

let watch_current = Some (Tango_bgp.As_path.of_list [ 20473; 2914; 20473 ])

let test_watch_verdict =
  Test.make ~name:"ctrl.watch.verdict_of (live)"
    (Staged.stage (fun () ->
         ignore
           (Tango_ctrl.Watch.verdict_of ~baseline:watch_baseline
              ~current:watch_current)))

(* Mesh relay fast path: segment-stack codec on a preallocated scratch
   stack and the O(1) arborescence probe. All three must stay at zero
   major words/op — they run once per relayed packet. *)

module M_segment = Tango_mesh.Segment
module M_arbor = Tango_mesh.Arbor
module M_mtopo = Tango_mesh.Mtopo

let seg_stack =
  let st = M_segment.create_stack () in
  st.M_segment.flags <- 0;
  st.M_segment.tree <- 1;
  st.M_segment.top <- 0;
  st.M_segment.src <- 3;
  st.M_segment.dst <- 52;
  st.M_segment.flow <- 7;
  st.M_segment.seq <- 1234;
  st.M_segment.count <- 4;
  st.M_segment.hop_budget <- 255;
  for i = 0 to 3 do
    st.M_segment.hops.(i) <- 10 + i;
    st.M_segment.seg_path.(i) <- i land 3
  done;
  st

let seg_buf = Bytes.create M_segment.max_header_bytes

let seg_len = M_segment.encode_into ~buf:seg_buf ~off:0 seg_stack

let seg_scratch = M_segment.create_stack ()

let test_segment_encode =
  Test.make ~name:"mesh.segment encode_into (4 hops)"
    (Staged.stage (fun () ->
         ignore (M_segment.encode_into ~buf:seg_buf ~off:0 seg_stack)))

let test_segment_decode =
  Test.make ~name:"mesh.segment decode_into (4 hops)"
    (Staged.stage (fun () ->
         ignore
           (M_segment.decode_into ~buf:seg_buf ~off:0 ~len:seg_len seg_scratch)))

let mesh_arbor =
  M_arbor.build ~k:3 (M_mtopo.generate ~degree:4 ~pops:64 ~seed:42 ())

let test_arbor_next =
  Test.make ~name:"mesh.arbor next_hop (64 PoPs)"
    (Staged.stage (fun () ->
         ignore (M_arbor.next_hop mesh_arbor ~dst:52 ~tree:1 ~pop:10)))

(* Attestation fast path (E17): the per-forward digest fold and the
   per-delivery chain recompute ([Attest.check], the dominant verify
   cost on the match path). Both must stay at zero major words/op, and
   the 4-hop verify must stay within 2x of a plain 4-hop segment
   decode (relational gate in compare.ml). *)

module M_attest = Tango_mesh.Attest

let attest_verifier =
  let a = M_attest.create ~pops:64 ~flows:16 () in
  (* Stitched entries: intermediates 10, 11, 12 then the destination —
     with the source that commits a 4-fold chain. *)
  M_attest.commit a ~flow:7 ~src:3 ~hops:[| 10; 11; 12; 52 |] ~count:4;
  a

let attest_stack =
  let st = M_segment.create_stack () in
  st.M_segment.flags <- M_segment.flag_attest;
  st.M_segment.tree <- 1;
  st.M_segment.top <- 4;
  st.M_segment.src <- 3;
  st.M_segment.dst <- 52;
  st.M_segment.flow <- 7;
  st.M_segment.seq <- 1234;
  st.M_segment.count <- 4;
  st.M_segment.hop_budget <- 251 (* 4 physical hops taken *);
  let d = ref (M_attest.chain_seed ~flow:7 ~seq:1234 ~src:3 ~dst:52) in
  List.iteri
    (fun i hop -> d := M_attest.fold_hop !d ~hop ~tree:1 ~ttl:(254 - i))
    [ 3; 10; 11; 12 ];
  st.M_segment.digest <- !d;
  st

let test_attest_fold =
  Test.make ~name:"mesh.segment.fold_hop"
    (Staged.stage (fun () ->
         ignore (M_attest.fold_hop 0x1234567 ~hop:10 ~tree:1 ~ttl:253)))

let test_attest_verify =
  Test.make ~name:"mesh.attest.verify (4 hops)"
    (Staged.stage (fun () -> ignore (M_attest.check attest_verifier attest_stack)))

let all_tests =
  Test.make_grouped ~name:"tango"
    [
      test_encode;
      test_encode_into;
      test_decode;
      test_decode_into;
      test_siphash;
      test_auth_decode;
      test_hash;
      test_rolling;
      test_jitter;
      test_jitter_noisy;
      test_detect_noisy;
      test_tracker;
      test_engine;
      test_rng;
      test_policy_uncached;
      test_flow_cache_hit;
      test_decision;
      test_route_for_addr;
      test_next_hop;
      test_obs_incr_on;
      test_obs_incr_off;
      test_obs_gauge_on;
      test_obs_observe_on;
      test_obs_trace_on;
      test_tracker_instrumented;
      test_fault_check_inactive;
      test_fault_check_active;
      test_send_batch_direct;
      test_send_batch_encap;
      test_watch_verdict;
      test_segment_encode;
      test_segment_decode;
      test_arbor_next;
      test_attest_fold;
      test_attest_verify;
    ]

(* ------------------------------------------------------------------ *)
(* Measurement: one benchmark pass, analyzed against the clock and both
   GC allocation counters.                                             *)

type row = {
  name : string;
  ns_per_op : float option;
  minor_words_per_op : float option;
  major_words_per_op : float option;
  pps : float option;
      (* End-to-end packets/s for pipeline rows (higher is better);
         None for bechamel ops. *)
}

let estimate results name =
  match Hashtbl.find_opt results name with
  | None -> None
  | Some result -> (
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Some est
      | Some _ | None -> None)

let measure () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances =
    Instance.[ monotonic_clock; minor_allocated; major_allocated ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let clock = Analyze.all ols Instance.monotonic_clock raw in
  let minor = Analyze.all ols Instance.minor_allocated raw in
  let major = Analyze.all ols Instance.major_allocated raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) clock [] in
  List.map
    (fun name ->
      {
        name;
        ns_per_op = estimate clock name;
        minor_words_per_op = estimate minor name;
        major_words_per_op = estimate major name;
        pps = None;
      })
    (List.sort String.compare names)

(* End-to-end pipeline rows: the multicore batched dataplane at a small,
   fixed workload (E14 runs the full sweep; these rows exist so
   BENCH.json carries a pps trajectory that compare.exe can gate,
   higher-is-better). Best of two trials — single-trial wall clocks on a
   shared box are too noisy to regress against. The blast rows send from
   every flow every generation; the heavy-tail row runs an E16 plan
   (bounded cache at flows/4), where most flows are idle in any one
   generation, so it is the row that sees the cost of the schedule. *)
let pipeline_rows () =
  let blast ~domains ~batch () =
    Tango.Throughput.run ~domains ~batch ~flows:512 ~generations:1000 ~seed:42 ()
  in
  let heavy_tail () =
    let plan =
      Tango_workload.Load.plan
        (Tango_workload.Load.default_config ~flows:10_000 ~generations:256
           ~seed:42 ())
    in
    Tango.Throughput.run ~domains:1 ~plan ~cache_capacity:2_500
      ~tracker_ceiling:65_536 ()
  in
  List.map
    (fun (name, trial) ->
      let a = trial () and b = trial () in
      let r = if a.Tango.Throughput.pps >= b.Tango.Throughput.pps then a else b in
      {
        name;
        ns_per_op = Some (1e9 /. r.Tango.Throughput.pps);
        minor_words_per_op = Some r.Tango.Throughput.minor_words_per_packet;
        major_words_per_op = Some r.Tango.Throughput.major_words_per_packet;
        pps = Some r.Tango.Throughput.pps;
      })
    [
      ("throughput.pipeline (1 domain, batch 1)", blast ~domains:1 ~batch:1);
      ("throughput.pipeline (1 domain, batch 64)", blast ~domains:1 ~batch:64);
      ("throughput.pipeline (2 domains, batch 64)", blast ~domains:2 ~batch:64);
      ("throughput.pipeline (heavy-tail plan, 10^4 flows, 1 domain)", heavy_tail);
    ]

let print_rows rows =
  Printf.printf "\n=== Microbenchmarks (OLS fit per op) ===\n%!";
  Printf.printf "  %-42s %12s %13s %13s %10s\n" "op" "ns/op" "minor w/op"
    "major w/op" "Mpps";
  List.iter
    (fun r ->
      let cell = function
        | Some v -> Printf.sprintf "%13.1f" v
        | None -> Printf.sprintf "%13s" "-"
      in
      Printf.printf "  %-42s %s %s %s %s\n" r.name
        (match r.ns_per_op with
        | Some v -> Printf.sprintf "%12.1f" v
        | None -> Printf.sprintf "%12s" "-")
        (cell r.minor_words_per_op)
        (cell r.major_words_per_op)
        (match r.pps with
        | Some v -> Printf.sprintf "%10.3f" (v /. 1e6)
        | None -> Printf.sprintf "%10s" "-"))
    rows

let run_measured () =
  let rows = measure () @ pipeline_rows () in
  print_rows rows;
  rows

let run () = ignore (run_measured ())

(* ------------------------------------------------------------------ *)
(* BENCH.json: the machine-readable perf trajectory future PRs regress
   against (see EXPERIMENTS.md for the schema).                        *)

let json_number = function
  | Some v when Float.is_finite v -> Printf.sprintf "%.3f" v
  | Some _ | None -> "null"

let write_json path rows =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"schema_version\": 1,\n";
  output_string oc "  \"tool\": \"tango-bench\",\n";
  output_string oc "  \"config\": { \"quota_s\": 0.25, \"limit\": 2000 },\n";
  (* The host the rows were measured on: ns/op rows compare only
     between like hosts (compare.exe prints both files' hosts). *)
  Printf.fprintf oc
    "  \"host\": { \"ocaml_version\": \"%s\", \"recommended_domain_count\": %d },\n"
    (Tango_obs.Json.escape Sys.ocaml_version)
    (Domain.recommended_domain_count ());
  output_string oc "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"ns_per_op\": %s, \"minor_words_per_op\": %s, \"major_words_per_op\": %s, \"pps\": %s }%s\n"
        (Tango_obs.Json.escape r.name) (json_number r.ns_per_op)
        (json_number r.minor_words_per_op)
        (json_number r.major_words_per_op)
        (json_number r.pps)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc
