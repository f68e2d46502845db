(* Tests for the data plane: clocks, tunnels, sequence tracking, ECMP
   lanes and the packet fabric. *)

open Tango_dataplane
module Addr = Tango_net.Addr
module Flow = Tango_net.Flow
module Packet = Tango_net.Packet
module Engine = Tango_sim.Engine
module Prefix = Tango_net.Prefix

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_clock_offset () =
  let c = Clock.create ~offset_ns:5_000L () in
  Alcotest.(check int64) "offset applied" 1_000_005_000L
    (Clock.now_ns c ~sim_time_s:1.0)

(* The batch form of the receiver's OWD reading: now_ns at each
   arrival minus the sender's stamp, in ms, bit for bit. *)
let test_clock_owd_ms_into () =
  let c = Clock.create ~offset_ns:(-12_000_000L) () in
  let stamp_ns = Clock.now_ns c ~sim_time_s:1.0 in
  let at = [| 1.0284; 1.5; 2.000001; 9.0 |] in
  let into = Array.make 4 0.0 in
  Clock.owd_ms_into c ~stamp_ns:(Int64.to_int stamp_ns) at ~into 3;
  Array.iteri
    (fun i t ->
      let expect =
        if i < 3 then
          Int64.to_float (Int64.sub (Clock.now_ns c ~sim_time_s:t) stamp_ns) /. 1e6
        else 0.0
      in
      Alcotest.(check bool) (Printf.sprintf "slot %d" i) true
        (Float.equal expect into.(i)))
    at

(* ------------------------------------------------------------------ *)
(* Tunnel                                                              *)

let mk_packet id =
  Packet.create ~id
    ~flow:
      (Flow.v
         ~src:(Addr.of_string_exn "2001:db8:4000::1")
         ~dst:(Addr.of_string_exn "2001:db8:4010::1")
         ~proto:17 ~src_port:1000 ~dst_port:5000)
    ~payload_bytes:100 ~created_at:0.0 ()

let mk_tunnel () =
  Tunnel.create ~path_id:2 ~label:"GTT"
    ~local_endpoint:(Addr.of_string_exn "2001:db8:4003::1")
    ~remote_endpoint:(Addr.of_string_exn "2001:db8:4013::1")
    ()

let test_tunnel_seq_advances () =
  let t = mk_tunnel () in
  let clock = Clock.create () in
  let p1 = mk_packet 1 and p2 = mk_packet 2 in
  Tunnel.send t ~clock ~now_s:0.0 p1;
  Tunnel.send t ~clock ~now_s:0.0 p2;
  let e1 = Option.get p1.Packet.encap and e2 = Option.get p2.Packet.encap in
  Alcotest.(check int64) "first seq" 0L e1.Packet.tango.Packet.seq;
  Alcotest.(check int64) "second seq" 1L e2.Packet.tango.Packet.seq;
  Alcotest.(check int) "path id carried" 2 e1.Packet.tango.Packet.path_id

let test_tunnel_owd_with_synced_clocks () =
  let t = mk_tunnel () in
  let clock = Clock.create () in
  let p = mk_packet 1 in
  Tunnel.send t ~clock ~now_s:1.0 p;
  let tango = (Packet.decapsulate p).Packet.tango in
  Alcotest.(check (float 1e-6)) "owd 28.4ms" 28.4 (Tunnel.owd_ms ~clock ~now_s:1.0284 tango)

let test_tunnel_owd_offset_is_constant () =
  (* The paper's key measurement property: unsynchronized clocks shift
     every OWD by the same constant, preserving relative comparisons. *)
  let sender = Clock.create ~offset_ns:37_000_000L () in
  let receiver = Clock.create ~offset_ns:(-12_000_000L) () in
  let owd ~delay =
    let t = mk_tunnel () in
    let p = mk_packet 1 in
    Tunnel.send t ~clock:sender ~now_s:5.0 p;
    Tunnel.owd_ms ~clock:receiver ~now_s:(5.0 +. delay) (Packet.decapsulate p).Packet.tango
  in
  let a = owd ~delay:0.028 and b = owd ~delay:0.0364 in
  Alcotest.(check (float 1e-6)) "difference exact despite skew" 8.4 (b -. a);
  Alcotest.(check (float 1e-6)) "absolute shifted by skew" (28.0 -. 49.0) a

let test_tunnel_receive_raw_packet_rejected () =
  (* The receiver program starts by decapsulating; a packet that never
     went through a tunnel has no shim to measure. *)
  let p = mk_packet 1 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Packet.decapsulate p);
       false
     with Tango_net.Err.Invalid _ -> true)

(* ------------------------------------------------------------------ *)
(* Seq_tracker                                                         *)

let test_tracker_alloc () =
  (* In order, per observation only the boxed int64 sequence number
     (3 words) may be allocated. *)
  let t = Seq_tracker.create () in
  let ops = 100_000 in
  let before = Gc.minor_words () in
  for i = 0 to ops - 1 do
    Seq_tracker.observe t (Int64.of_int i)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "no loss inferred" true (Seq_tracker.recent_loss_rate t = 0.0);
  (* 16 words of slack cover the two Gc.minor_words readings. *)
  if words > float_of_int ((3 * ops) + 16) then
    Alcotest.failf "%.3f minor words per observe, want <= 3" (words /. float_of_int ops)

(* The native-int table forms are the int64 forms without the
   range check: same counts, same aggregates. *)
let test_tracker_table_int_forms () =
  let module T = Seq_tracker.Table in
  let a = T.create ~keys:2 () and b = T.create ~keys:2 () in
  List.iter
    (fun s ->
      T.observe_int a ~key:1 s;
      T.observe b ~key:1 (Int64.of_int s))
    [ 0; 1; 4; 2; 2; 9; 7 ];
  T.confirm_below_int a ~key:1 6;
  T.confirm_below b ~key:1 6L;
  List.iter
    (fun (name, f) -> Alcotest.(check int) name (f b) (f a))
    [
      ("lost", T.lost_total);
      ("reordered", T.reordered_total);
      ("duplicates", T.duplicates_total);
      ("received", T.received_total);
      ("resident", T.resident);
      ("resident peak", T.resident_peak);
      ("active", T.active_keys);
    ];
  let rejects f = try f (); false with Err.Invalid _ -> true in
  Alcotest.(check bool) "negative sequence rejected" true
    (rejects (fun () -> T.observe_int a ~key:0 (-1)));
  Alcotest.(check bool) "negative bound rejected" true
    (rejects (fun () -> T.confirm_below_int a ~key:0 (-1)))

(* One tracker, fed and read through a one-key table: the counts the
   lanes report. *)
let tracker_of seqs =
  let t = Seq_tracker.Table.create ~keys:1 () in
  List.iter (fun s -> Seq_tracker.Table.observe t ~key:0 (Int64.of_int s)) seqs;
  t

let test_tracker_in_order () =
  let t = tracker_of [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "received" 4 (Seq_tracker.Table.received_total t);
  Alcotest.(check int) "no loss" 0 (Seq_tracker.Table.lost_total t);
  Alcotest.(check int) "no reorder" 0 (Seq_tracker.Table.reordered_total t)

let test_tracker_loss () =
  let t = tracker_of [ 0; 1; 4 ] in
  Alcotest.(check int) "two missing" 2 (Seq_tracker.Table.lost_total t)

let test_tracker_reorder_heals_loss () =
  let t = tracker_of [ 0; 2; 1; 3 ] in
  Alcotest.(check int) "nothing lost" 0 (Seq_tracker.Table.lost_total t);
  Alcotest.(check int) "one reorder" 1 (Seq_tracker.Table.reordered_total t);
  Alcotest.(check int) "all received" 4 (Seq_tracker.Table.received_total t)

let test_tracker_duplicates () =
  let t = tracker_of [ 0; 1; 1; 0 ] in
  Alcotest.(check int) "two dups" 2 (Seq_tracker.Table.duplicates_total t);
  Alcotest.(check int) "two received" 2 (Seq_tracker.Table.received_total t)

let tracker_qcheck_permutation_no_loss =
  QCheck.Test.make ~name:"any permutation of 0..n-1 shows no loss" ~count:200
    QCheck.(int_bound 50)
    (fun n ->
      let arr = Array.init (n + 1) Fun.id in
      let rng = Tango_sim.Rng.create ~seed:n in
      Tango_sim.Rng.shuffle rng arr;
      let t = tracker_of (Array.to_list arr) in
      Seq_tracker.Table.lost_total t = 0 && Seq_tracker.Table.received_total t = n + 1)

(* ------------------------------------------------------------------ *)
(* Ecmp                                                                *)

let test_ecmp_lane_stability () =
  let lanes = Ecmp.uniform_lanes ~count:4 ~spread_ms:2.0 in
  let flow =
    Flow.v
      ~src:(Addr.of_string_exn "2001:db8::1")
      ~dst:(Addr.of_string_exn "2001:db8::2")
      ~proto:17 ~src_port:40000 ~dst_port:4789
  in
  let lane () = Ecmp.lane_delay_ms lanes ~hash:(Flow.hash_5tuple ~salt:7 flow) in
  Alcotest.(check (float 0.0)) "same flow same lane" (lane ()) (lane ())

let test_ecmp_spread () =
  let lanes = Ecmp.uniform_lanes ~count:4 ~spread_ms:2.0 in
  let seen = Hashtbl.create 4 in
  for port = 1000 to 1200 do
    let flow =
      Flow.v
        ~src:(Addr.of_string_exn "2001:db8::1")
        ~dst:(Addr.of_string_exn "2001:db8::2")
        ~proto:17 ~src_port:port ~dst_port:4789
    in
    Hashtbl.replace seen (Ecmp.lane_delay_ms lanes ~hash:(Flow.hash_5tuple ~salt:7 flow)) ()
  done;
  Alcotest.(check int) "different flows cover all lanes" 4 (Hashtbl.length seen)

let test_ecmp_lane_delay () =
  let lanes = Ecmp.uniform_lanes ~count:3 ~spread_ms:1.5 in
  Alcotest.(check (array (float 1e-9))) "offsets" [| 0.0; 1.5; 3.0 |] lanes

(* ------------------------------------------------------------------ *)
(* Fabric                                                              *)

let chain_fabric () =
  let topo = Tango_topo.Builders.chain 3 in
  let engine = Engine.create () in
  let net = Tango_bgp.Network.create topo engine in
  Tango_bgp.Network.announce net ~node:2 (Prefix.of_string_exn "2001:db8::/32") ();
  ignore (Tango_bgp.Network.converge net);
  (engine, Fabric.create net)

let packet_to addr id =
  Packet.create ~id
    ~flow:
      (Flow.v
         ~src:(Addr.of_string_exn "fd00::1")
         ~dst:(Addr.of_string_exn addr) ~proto:17 ~src_port:1 ~dst_port:2)
    ~payload_bytes:64 ~created_at:0.0 ()

let test_fabric_delivers () =
  let engine, plain = chain_fabric () in
  (* The dynamic-delay resolver runs once per directed link at
     creation, and each link's process sees every hop across it. *)
  let resolved = ref 0 and hops = ref [] in
  let fabric =
    Fabric.create
      ~extra_delay_ms:(fun ~from_node ~to_node ->
        incr resolved;
        Some
          (fun ~time_s:_ ->
            hops := (from_node, to_node) :: !hops;
            0.0))
      (Fabric.network plain)
  in
  Alcotest.(check int) "resolved once per directed link" 4 !resolved;
  let delivered = ref None in
  Fabric.send fabric ~from_node:0
    ~on_delivered:(fun ~node _ -> delivered := Some node)
    (packet_to "2001:db8:1:2::3" 1);
  Engine.run engine;
  match !delivered with
  | Some node ->
      Alcotest.(check int) "delivered at origin" 2 node;
      Alcotest.(check (list (pair int int))) "hops" [ (0, 1); (1, 2) ] (List.rev !hops);
      Alcotest.(check int) "counter" 1 (Fabric.delivered fabric)
  | None -> Alcotest.fail "packet lost"

let test_fabric_latency_is_sum_of_links () =
  (* chain links default to 1 ms each; transmission of 104 bytes at
     10 Gb/s is negligible but nonzero. *)
  let engine, fabric = chain_fabric () in
  let sent_at = Engine.now engine in
  let arrival = ref nan in
  Fabric.send fabric ~from_node:0
    ~on_delivered:(fun ~node:_ _ -> arrival := Engine.now engine -. sent_at)
    (packet_to "2001:db8:1:2::3" 1);
  Engine.run engine;
  Alcotest.(check bool) "about 2 ms" true (!arrival > 0.002 && !arrival < 0.0023)

let test_fabric_unroutable () =
  let engine, fabric = chain_fabric () in
  let reason = ref "" in
  Fabric.send fabric ~from_node:0
    ~on_dropped:(fun ~reason:r _ -> reason := r)
    ~on_delivered:(fun ~node:_ _ -> Alcotest.fail "should not deliver")
    (packet_to "2001:db9::1" 1);
  Engine.run engine;
  Alcotest.(check string) "unroutable" "unroutable" !reason;
  Alcotest.(check int) "dropped counter" 1 (Fabric.dropped fabric)

let test_fabric_extra_delay_applied () =
  let topo = Tango_topo.Builders.chain 2 in
  let engine = Engine.create () in
  let net = Tango_bgp.Network.create topo engine in
  Tango_bgp.Network.announce net ~node:1 (Prefix.of_string_exn "2001:db8::/32") ();
  ignore (Tango_bgp.Network.converge net);
  let fabric =
    Fabric.create
      ~extra_delay_ms:(fun ~from_node:_ ~to_node:_ -> Some (fun ~time_s:_ -> 10.0))
      net
  in
  let sent_at = Engine.now engine in
  let arrival = ref nan in
  Fabric.send fabric ~from_node:0
    ~on_delivered:(fun ~node:_ _ -> arrival := Engine.now engine -. sent_at)
    (packet_to "2001:db8::1" 1);
  Engine.run engine;
  Alcotest.(check bool) "about 11 ms" true (!arrival > 0.011 && !arrival < 0.0115)

let test_fabric_lanes_differentiate_flows () =
  let topo = Tango_topo.Builders.chain 3 in
  let engine = Engine.create () in
  let net = Tango_bgp.Network.create topo engine in
  Tango_bgp.Network.announce net ~node:2 (Prefix.of_string_exn "2001:db8::/32") ();
  ignore (Tango_bgp.Network.converge net);
  let fabric =
    Fabric.create
      ~lanes_of:(fun node ->
        if node = 1 then Ecmp.uniform_lanes ~count:8 ~spread_ms:5.0
        else [| 0.0 |])
      net
  in
  let arrivals = Hashtbl.create 8 in
  for port = 1 to 40 do
    let p =
      Packet.create ~id:port
        ~flow:
          (Flow.v
             ~src:(Addr.of_string_exn "fd00::1")
             ~dst:(Addr.of_string_exn "2001:db8::1")
             ~proto:17 ~src_port:port ~dst_port:2)
        ~payload_bytes:64 ~created_at:0.0 ()
    in
    Fabric.send fabric ~from_node:0
      ~on_delivered:(fun ~node:_ p ->
        Hashtbl.replace arrivals p.Packet.id (Engine.now engine))
      p
  done;
  Engine.run engine;
  let distinct = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ at -> Hashtbl.replace distinct (int_of_float (at *. 1e4)) ())
    arrivals;
  (* Eight lanes, 5 ms apart: different source ports land in clearly
     separated arrival groups. *)
  Alcotest.(check bool) "several lanes used" true (Hashtbl.length distinct >= 3)

(* ------------------------------------------------------------------ *)
(* Per-link state                                                      *)

(* The Vultr world's node ids are ASNs (up to 3356) but it has 9 nodes,
   so per-link state must cost 81 entries, not 3357^2. *)
let vultr_net () =
  Tango_bgp.Network.create (Tango_topo.Vultr.build ()) (Engine.create ())

let test_fabric_link_state_sized_by_nodes () =
  let net = vultr_net () in
  let before = (Gc.quick_stat ()).Gc.major_words in
  let fabric = Fabric.create net in
  Fabric.set_link_fault fabric ~from_node:Tango_topo.Vultr.gtt
    ~to_node:Tango_topo.Vultr.vultr_la ~loss:0.3 ();
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  let mb = words *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  Alcotest.(check int) "fault installed" 1 (Fabric.fault_count fabric);
  Alcotest.(check bool)
    (Printf.sprintf "create + set_link_fault under 1 MB (%.2f MB)" mb)
    true (mb < 1.0)

(* The forwarding loop reads links from the snapshot taken at
   [Fabric.create]; it must hold exactly the topology's link (the same
   value, or none) for every ordered pair of nodes. *)
let check_link_snapshot topo =
  let fabric =
    Fabric.create (Tango_bgp.Network.create topo (Engine.create ()))
  in
  let ids = List.map (fun (v : Tango_topo.Topology.node) -> v.Tango_topo.Topology.id) (Tango_topo.Topology.nodes topo) in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          Option.equal ( == )
            (Fabric.link fabric ~from_node:a ~to_node:b)
            (Tango_topo.Topology.link topo a b))
        ids)
    ids

let test_fabric_link_snapshot_vultr () =
  Alcotest.(check bool) "every ordered pair" true
    (check_link_snapshot (Tango_topo.Vultr.build ()))

let fabric_qcheck_link_snapshot =
  QCheck.Test.make ~name:"link snapshot equals Topology.link on random hierarchies"
    ~count:50
    QCheck.(triple (int_range 0 10_000) (int_range 1 4) (int_range 0 12))
    (fun (seed, tier1, stubs) ->
      check_link_snapshot
        (Tango_topo.Builders.random_hierarchy ~seed ~tier1 ~tier2:(tier1 + 2) ~stubs))

let test_fabric_link_ids_validated () =
  let fabric = Fabric.create (vultr_net ()) in
  let module V = Tango_topo.Vultr in
  let raises what f =
    Alcotest.(check bool) what true
      (try
         f ();
         false
       with Err.Invalid _ -> true)
  in
  List.iter
    (fun (name, bad) ->
      raises ("fail_link from " ^ name) (fun () ->
          Fabric.fail_link fabric ~from_node:bad ~to_node:V.vultr_la);
      raises ("fail_link to " ^ name) (fun () ->
          Fabric.fail_link fabric ~from_node:V.gtt ~to_node:bad);
      raises ("set_link_fault from " ^ name) (fun () ->
          Fabric.set_link_fault fabric ~from_node:bad ~to_node:V.vultr_la ());
      raises ("set_link_fault to " ^ name) (fun () ->
          Fabric.set_link_fault fabric ~from_node:V.gtt ~to_node:bad ()))
    [
      ("a negative id", -1);
      ("an id past the largest", V.level3 + 1);
      ("an id that is not a node", 3);
    ];
  Alcotest.(check int) "no fault recorded" 0 (Fabric.fault_count fabric);
  (* Valid ids still work, in both directions. *)
  Fabric.fail_link fabric ~from_node:V.vultr_la ~to_node:V.gtt;
  Fabric.heal_link fabric ~from_node:V.vultr_la ~to_node:V.gtt;
  Fabric.set_link_fault fabric ~from_node:V.level3 ~to_node:V.vultr_la ();
  Alcotest.(check int) "valid fault recorded" 1 (Fabric.fault_count fabric)

(* ------------------------------------------------------------------ *)
(* Hop memo: the per-node next-hop cache against a per-hop lookup      *)

module Network = Tango_bgp.Network
module Topology = Tango_topo.Topology

let memo_specific = Prefix.of_string_exn "2001:db8:1::/48"

(* Sender 0 under transits 1 and 2, which peer; 3 originates
   2001:db8:1::/48 below both transits and 4 the covering 2001:db8::/32
   below transit 2 only. Every link is jitter-free, so nothing draws from a
   random stream and two copies of the world replay the same events. *)
let memo_world () =
  let topo = Topology.create () in
  List.iter
    (fun (id, name) -> Topology.add_node topo ~id ~asn:(64500 + id) name)
    [ (0, "sender"); (1, "transit-a"); (2, "transit-b"); (3, "specific"); (4, "covering") ];
  let link ms = Tango_topo.Link.v ~jitter_ms:0.0 ~bandwidth_mbps:1000.0 ms in
  Topology.connect topo ~provider:1 ~customer:0 ~link:(link 11.0) ();
  Topology.connect topo ~provider:2 ~customer:0 ~link:(link 17.0) ();
  Topology.connect topo ~provider:1 ~customer:3 ~link:(link 13.0) ();
  Topology.connect topo ~provider:2 ~customer:3 ~link:(link 7.0) ();
  Topology.connect topo ~provider:2 ~customer:4 ~link:(link 5.0) ();
  Topology.connect_peers topo 1 2 ~link:(link 3.0) ();
  let engine = Engine.create () in
  let net = Network.create topo engine in
  Network.announce net ~node:3 memo_specific ();
  Network.announce net ~node:4 (Prefix.of_string_exn "2001:db8::/32") ();
  ignore (Network.converge net);
  (engine, net)

(* [Fabric.send]'s forwarding before the hop memo, copied for
   jitter-free links, a single lane and no hooks or faults: every hop
   asks the node's table with [Network.route_for_addr]. *)
let rec reference_at_node net ~failed ~report packet node hops =
  let engine = Network.engine net in
  if hops > 64 then report packet (Error "ttl")
  else begin
    match Network.route_for_addr net ~node (Packet.forwarding_dst packet) with
    | None -> report packet (Error "unroutable")
    | Some route ->
        if Tango_bgp.Route.local route then report packet (Ok (node, Engine.now engine))
        else begin
          match route.Tango_bgp.Route.learned_from with
          | None -> report packet (Ok (node, Engine.now engine))
          | Some next -> reference_forward net ~failed ~report packet node next hops
        end
  end

and reference_forward net ~failed ~report packet node next hops =
  match Topology.link (Network.topology net) node next with
  | None -> report packet (Error "unroutable")
  | Some link ->
      if List.mem (node, next) !failed then report packet (Error "link-failure")
      else begin
        let jitter = 0.0 and lane = 0.0 and dynamic = 0.0 and fault_ms = 0.0 in
        let transmission_s =
          Tango_topo.Link.transmission_delay_ms link ~bytes:(Packet.wire_size packet)
          /. 1000.0
        in
        let delay_s =
          ((link.Tango_topo.Link.delay_ms +. jitter +. lane +. dynamic +. fault_ms)
          /. 1000.0)
          +. transmission_s
        in
        Engine.schedule (Network.engine net) ~delay:(Float.max 0.0 delay_s) (fun _ ->
            reference_at_node net ~failed ~report packet next (hops + 1))
      end

(* 24 destinations from the sender, more than a memo row's 16: 18 under
   the specific prefix, 4 only under the covering one, 2 unroutable.
   Every other send carries a fresh copy of its address, equal to the
   listed value but not the same value in memory. *)
let memo_dsts =
  Array.init 24 (fun i ->
      if i < 18 then Printf.sprintf "2001:db8:1:%d::%d" (i / 4) (1 + i)
      else if i < 22 then Printf.sprintf "2001:db8:2::%d" i
      else Printf.sprintf "2001:db9::%d" i)

(* One run: 300 sends from node 0, 2 ms apart, while the control plane
   moves under them — the specific prefix withdrawn at 100 ms and
   re-announced at 300 ms, then at 450 ms the link from the sender's
   transit to the specific prefix's origin fails. Routes change while
   packets are in flight at every step. [forwarder] builds the run's packet sender and
   link-failure switch on the run's world. Outcomes by packet id: the
   delivering node and time, or the drop reason. *)
let memo_run forwarder =
  let engine, net = memo_world () in
  let listed = Array.map Addr.of_string_exn memo_dsts in
  let outcomes = Hashtbl.create 300 in
  let report packet r = Hashtbl.replace outcomes packet.Packet.id r in
  let t0 = Engine.now engine in
  let via =
    match Network.forwarding_path net ~from_node:0 listed.(0) with
    | Some [ 0; transit; 3 ] -> transit
    | _ -> Alcotest.fail "sender's route to the specific prefix"
  in
  let send, fail_link = forwarder net ~report in
  for i = 0 to 299 do
    Engine.schedule_at engine ~time:(t0 +. (0.002 *. float_of_int i)) (fun _ ->
        let k = i mod Array.length memo_dsts in
        let dst =
          if i land 1 = 0 then listed.(k) else Addr.of_string_exn memo_dsts.(k)
        in
        let flow =
          Flow.v ~src:(Addr.of_string_exn "fd00::1") ~dst ~proto:17 ~src_port:i
            ~dst_port:2
        in
        send (Packet.create ~id:i ~flow ~payload_bytes:(64 + i) ~created_at:0.0 ()))
  done;
  Engine.schedule_at engine ~time:(t0 +. 0.1) (fun _ ->
      Network.withdraw net ~node:3 memo_specific);
  Engine.schedule_at engine ~time:(t0 +. 0.3) (fun _ ->
      Network.announce net ~node:3 memo_specific ());
  Engine.schedule_at engine ~time:(t0 +. 0.45) (fun _ -> fail_link ~from_node:via ~to_node:3);
  Engine.run engine;
  List.init 300 (fun i ->
      match Hashtbl.find_opt outcomes i with
      | Some (Ok (node, at)) -> Printf.sprintf "%d: node %d at %h" i node at
      | Some (Error reason) -> Printf.sprintf "%d: %s" i reason
      | None -> Printf.sprintf "%d: no outcome" i)

let test_fabric_hop_memo_differential () =
  let via_fabric =
    memo_run (fun net ~report ->
        let fabric = Fabric.create net in
        ( (fun packet ->
            Fabric.send fabric ~from_node:0
              ~on_dropped:(fun ~reason p -> report p (Error reason))
              ~on_delivered:(fun ~node p ->
                report p (Ok (node, Engine.now (Network.engine net))))
              packet),
          fun ~from_node ~to_node -> Fabric.fail_link fabric ~from_node ~to_node ))
  in
  let per_hop =
    memo_run (fun net ~report ->
        let failed = ref [] in
        ( (fun packet -> reference_at_node net ~failed ~report packet 0 0),
          fun ~from_node ~to_node -> failed := (from_node, to_node) :: !failed ))
  in
  Alcotest.(check (list string)) "same node and time, or same drop" per_hop via_fabric;
  (* The run covers what the memo must follow: deliveries at both
     origins, a failed link and no route. *)
  let seen words =
    List.exists
      (fun line ->
        let w = String.split_on_char ' ' line in
        List.for_all (fun x -> List.mem x w) words)
      per_hop
  in
  List.iter
    (fun words -> Alcotest.(check bool) (String.concat " " words) true (seen words))
    [ [ "link-failure" ]; [ "unroutable" ]; [ "node"; "3" ]; [ "node"; "4" ] ]

(* ------------------------------------------------------------------ *)
(* Delay-only links: no queueing or contention                         *)

let slow_link_net () =
  let topo = Tango_topo.Topology.create () in
  Tango_topo.Topology.add_node topo ~id:0 ~asn:0 "a";
  Tango_topo.Topology.add_node topo ~id:1 ~asn:1 "b";
  (* 1 Mb/s: a 1250 B packet (+40 B header) takes ~10.3 ms to serialize. *)
  Tango_topo.Topology.connect topo ~provider:0 ~customer:1
    ~link:(Tango_topo.Link.v ~jitter_ms:0.0 ~bandwidth_mbps:1.0 1.0) ();
  let engine = Engine.create () in
  let net = Tango_bgp.Network.create topo engine in
  Tango_bgp.Network.announce net ~node:1 (Prefix.of_string_exn "2001:db8::/32") ();
  ignore (Tango_bgp.Network.converge net);
  (engine, net)

let big_packet i =
  Packet.create ~id:i
    ~flow:
      (Flow.v
         ~src:(Addr.of_string_exn "fd00::1")
         ~dst:(Addr.of_string_exn "2001:db8::1")
         ~proto:17 ~src_port:1 ~dst_port:2)
    ~payload_bytes:1250 ~created_at:0.0 ()

let test_fabric_no_contention_by_default () =
  let engine, net = slow_link_net () in
  let fabric = Fabric.create net in
  let arrivals = ref [] in
  for i = 1 to 5 do
    Fabric.send fabric ~from_node:0
      ~on_delivered:(fun ~node:_ _ -> arrivals := Engine.now engine :: !arrivals)
      (big_packet i)
  done;
  Engine.run engine;
  (* Delay-only model: everything arrives together. *)
  match List.rev !arrivals with
  | first :: rest ->
      List.iter
        (fun at -> Alcotest.(check (float 1e-9)) "simultaneous" first at)
        rest
  | [] -> Alcotest.fail "nothing delivered"

(* ------------------------------------------------------------------ *)
(* Batched direct path                                                 *)

(* One route lookup and one arrival formula for both batch forms: an
   encap slot and a packet slot with the same endpoint and size land at
   the same node at the same time, and without a callback the arrival
   column is all there is. *)
let test_fabric_batch_forms_agree () =
  let _, net = slow_link_net () in
  let fabric = Fabric.create net in
  let dst = Addr.of_string_exn "2001:db8::1" in
  let b = Batch.create () in
  let p = big_packet 9 in
  Batch.add b p;
  Batch.encap b ~dst ~bytes:(Packet.wire_size p) ~path:0 ~flow:3 ~seq:0;
  let seen = ref [] in
  Fabric.send_batch_direct fabric ~from_node:0 ~now_s:2.0
    ~on_delivered_at:(fun ~node ~at_s pkt ->
      seen := (node, at_s, pkt.Packet.id) :: !seen)
    b;
  let expect = 2.0 +. 0.001 +. (float_of_int (Packet.wire_size p) *. 8e-6) in
  (match List.rev !seen with
  | [ (n0, t0, id0); (n1, t1, id1) ] ->
      Alcotest.(check (list int)) "delivering node, packet ids" [ 1; 9; 1; -1 ]
        [ n0; id0; n1; id1 ];
      Alcotest.(check (float 1e-12)) "closed-form arrival" expect t0;
      Alcotest.(check bool) "same arrival, bit for bit" true (Float.equal t0 t1);
      Alcotest.(check bool) "callback reads the column" true
        (Float.equal t0 b.Batch.arrival.(0) && Float.equal t1 b.Batch.arrival.(1))
  | l -> Alcotest.failf "%d deliveries" (List.length l));
  Fabric.send_batch_direct fabric ~from_node:0 ~now_s:3.0 b;
  Alcotest.(check (float 1e-12)) "no callback: arrival column" (expect +. 1.0)
    b.Batch.arrival.(1);
  Alcotest.(check int) "all direct" 0 (Fabric.direct_fallbacks fabric);
  Alcotest.(check int) "counted" 4 (Fabric.delivered fabric)

(* The route cache matches an endpoint by value: a second
   [Addr.of_string_exn] of the same address is a different value in
   memory, and it must still take the cached route to the same arrival,
   directly. *)
let test_fabric_batch_equal_endpoint () =
  let _, net = slow_link_net () in
  let fabric = Fabric.create net in
  let cached = Addr.of_string_exn "2001:db8::1" in
  let copy = Addr.of_string_exn "2001:db8::1" in
  Alcotest.(check bool) "equal, not the same value" true
    (Addr.equal cached copy && cached != copy);
  let arrival dst =
    let b = Batch.create () in
    Batch.encap b ~dst ~bytes:1290 ~path:0 ~flow:0 ~seq:0;
    Fabric.send_batch_direct fabric ~from_node:0 ~now_s:2.0 b;
    b.Batch.arrival.(0)
  in
  let first = arrival cached in
  let second = arrival copy in
  Alcotest.(check bool) "same arrival, bit for bit" true (Float.equal first second);
  Alcotest.(check (float 1e-12)) "closed-form arrival" (2.0 +. 0.001 +. (1290.0 *. 8e-6))
    second;
  (* In one batch the copy gets a table entry of its own, and the same
     arrival. *)
  let b = Batch.create () in
  List.iter
    (fun dst -> Batch.encap b ~dst ~bytes:1290 ~path:0 ~flow:0 ~seq:0)
    [ cached; copy; cached ];
  Alcotest.(check (list int)) "entries by identity" [ 0; 1; 0 ]
    [ b.Batch.dst.(0); b.Batch.dst.(1); b.Batch.dst.(2) ];
  Alcotest.(check int) "two entries" 2 b.Batch.endpoint_count;
  Fabric.send_batch_direct fabric ~from_node:0 ~now_s:2.0 b;
  Alcotest.(check bool) "same arrival in one batch" true
    (Float.equal b.Batch.arrival.(0) b.Batch.arrival.(1)
    && Float.equal b.Batch.arrival.(1) first);
  Alcotest.(check int) "all direct" 0 (Fabric.direct_fallbacks fabric)

(* A jittered route is not plain: every slot falls back and reads nan.
   The packet slot goes through the event path; the encap slot has no
   packet to send and is never delivered. *)
let test_fabric_batch_fallback () =
  let engine, fabric = chain_fabric () in
  let b = Batch.create () in
  Batch.encap b ~dst:(Addr.of_string_exn "2001:db8:1:2::3") ~bytes:104 ~path:0 ~flow:0
    ~seq:0;
  Batch.add b (packet_to "2001:db8:1:2::3" 1);
  let delivered = ref [] in
  Fabric.send_batch_direct fabric ~from_node:0 ~now_s:(Engine.now engine)
    ~on_delivered_at:(fun ~node ~at_s:_ p ->
      delivered := (node, p.Packet.id) :: !delivered)
    b;
  Alcotest.(check int) "both slots fell back" 2 (Fabric.direct_fallbacks fabric);
  Alcotest.(check bool) "arrivals read nan" true
    (Float.is_nan b.Batch.arrival.(0) && Float.is_nan b.Batch.arrival.(1));
  Alcotest.(check (list (pair int int))) "nothing delivered directly" [] !delivered;
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "the packet slot, through the event path"
    [ (2, 1) ] !delivered

(* Four endpoints on four single-link routes out of node 0, each with
   its own delay and bandwidth, all jitter-free. *)
let star_net () =
  let topo = Topology.create () in
  Topology.add_node topo ~id:0 ~asn:64500 "sender";
  for k = 1 to 4 do
    Topology.add_node topo ~id:k ~asn:(64500 + k) (Printf.sprintf "site-%d" k);
    Topology.connect topo ~provider:0 ~customer:k
      ~link:
        (Tango_topo.Link.v ~jitter_ms:0.0
           ~bandwidth_mbps:(100.0 *. float_of_int k)
           (1.5 *. float_of_int k))
      ()
  done;
  let engine = Engine.create () in
  let net = Network.create topo engine in
  for k = 1 to 4 do
    Network.announce net ~node:k (Prefix.of_string_exn (Printf.sprintf "2001:db8:%d::/48" k)) ()
  done;
  ignore (Network.converge net);
  net

let star_dsts = Array.init 4 (fun k -> Addr.of_string_exn (Printf.sprintf "2001:db8:%d::1" (k + 1)))

(* Slot [i]'s endpoint in the interleaved batch: irregular, every
   endpoint present, first appearances in the order 0, 1, 3, 2. *)
let star_endpoint i = [| 0; 1; 3; 2; 2; 0; 3; 1; 1 |].(i mod 9)

let star_bytes i = 90 + (37 * i)

(* Each distinct endpoint is resolved once per call, and a slot reads
   its endpoint's entry: one batch that interleaves four endpoints
   lands every slot at the time, bit for bit, that four batches of one
   endpoint each give it. *)
let test_fabric_batch_endpoint_table () =
  let fabric = Fabric.create (star_net ()) in
  let mixed = Batch.create () in
  for i = 0 to Batch.capacity - 1 do
    Batch.encap mixed ~dst:star_dsts.(star_endpoint i) ~bytes:(star_bytes i) ~path:0
      ~flow:i ~seq:0
  done;
  Alcotest.(check int) "four table entries" 4 mixed.Batch.endpoint_count;
  Alcotest.(check bool) "first-appearance order" true
    (List.for_all2
       (fun j k -> mixed.Batch.endpoints.(j) == star_dsts.(k))
       [ 0; 1; 2; 3 ] [ 0; 1; 3; 2 ]);
  Fabric.send_batch_direct fabric ~from_node:0 ~now_s:5.0 mixed;
  for k = 0 to 3 do
    let single = Batch.create () in
    let slots = List.filter (fun i -> star_endpoint i = k) (List.init Batch.capacity Fun.id) in
    List.iter
      (fun i -> Batch.encap single ~dst:star_dsts.(k) ~bytes:(star_bytes i) ~path:0 ~flow:i ~seq:0)
      slots;
    Fabric.send_batch_direct fabric ~from_node:0 ~now_s:5.0 single;
    List.iteri
      (fun s i ->
        if not (Float.equal single.Batch.arrival.(s) mixed.Batch.arrival.(i)) then
          Alcotest.failf "slot %d (endpoint %d): %h alone, %h interleaved" i k
            single.Batch.arrival.(s) mixed.Batch.arrival.(i))
      slots
  done;
  Alcotest.(check int) "all direct" 0 (Fabric.direct_fallbacks fabric)

(* A failed link on one endpoint's route: exactly that endpoint's slots
   fall back, to [send], in slot order among the direct deliveries (each
   direct delivery sees the drops of the fallback slots before it), and
   every other slot stays direct. *)
let test_fabric_batch_failed_endpoint () =
  let fabric = Fabric.create (star_net ()) in
  let failed = 3 in
  Fabric.fail_link fabric ~from_node:0 ~to_node:(failed + 1);
  let b = Batch.create () in
  for i = 0 to Batch.capacity - 1 do
    let flow =
      Flow.v ~src:(Addr.of_string_exn "fd00::1") ~dst:star_dsts.(star_endpoint i)
        ~proto:17 ~src_port:i ~dst_port:2
    in
    Batch.add b (Packet.create ~id:i ~flow ~payload_bytes:64 ~created_at:0.0 ())
  done;
  let seen = ref [] in
  Fabric.send_batch_direct fabric ~from_node:0 ~now_s:5.0
    ~on_delivered_at:(fun ~node:_ ~at_s:_ p ->
      seen := (p.Packet.id, Fabric.dropped fabric) :: !seen)
    b;
  let slots = List.init Batch.capacity Fun.id in
  let on_failed i = star_endpoint i = failed in
  let fell_before i = List.length (List.filter (fun j -> j < i && on_failed j) slots) in
  Alcotest.(check (list (pair int int))) "direct slots, with the drops before each"
    (List.filter_map
       (fun i -> if on_failed i then None else Some (i, fell_before i))
       slots)
    (List.rev !seen);
  let fell = List.filter on_failed slots in
  Alcotest.(check int) "that endpoint's slots fell back" (List.length fell)
    (Fabric.direct_fallbacks fabric);
  Alcotest.(check int) "dropped on the failed link" (List.length fell) (Fabric.dropped fabric);
  Alcotest.(check (list int)) "nan exactly there" fell
    (List.filter (fun i -> Float.is_nan b.Batch.arrival.(i)) slots)

(* ------------------------------------------------------------------ *)
(* Flow cache                                                          *)

let test_flow_cache_hit_miss () =
  let c = Flow_cache.create () in
  Alcotest.(check (option int)) "empty" None (Flow_cache.find c ~flow_hash:7);
  Flow_cache.store c ~flow_hash:7 3;
  Alcotest.(check (option int)) "stored" (Some 3) (Flow_cache.find c ~flow_hash:7);
  Alcotest.(check (option int)) "other hash" None (Flow_cache.find c ~flow_hash:8);
  Alcotest.(check int) "hits" 1 (Flow_cache.hits c);
  Alcotest.(check int) "misses" 2 (Flow_cache.misses c)

let test_flow_cache_invalidation () =
  let c = Flow_cache.create () in
  Flow_cache.store c ~flow_hash:1 2;
  Flow_cache.store c ~flow_hash:9 5;
  Flow_cache.invalidate c;
  (* Generation bump: every stale entry misses without being scanned. *)
  Alcotest.(check (option int)) "stale after bump" None (Flow_cache.find c ~flow_hash:1);
  Alcotest.(check (option int)) "all flows stale" None (Flow_cache.find c ~flow_hash:9);
  Flow_cache.store c ~flow_hash:1 7;
  Alcotest.(check (option int)) "restored in new generation" (Some 7)
    (Flow_cache.find c ~flow_hash:1)

let test_flow_cache_path_bounds () =
  let c = Flow_cache.create () in
  Flow_cache.store c ~flow_hash:1 255;
  Alcotest.(check (option int)) "max path roundtrips" (Some 255)
    (Flow_cache.find c ~flow_hash:1);
  Alcotest.(check bool) "path above max rejected" true
    (try
       Flow_cache.store c ~flow_hash:2 256;
       false
     with Err.Invalid _ -> true);
  Alcotest.(check bool) "negative path rejected" true
    (try
       Flow_cache.store c ~flow_hash:2 (-1);
       false
     with Err.Invalid _ -> true)

(* Generation-stamp wraparound: the packed stamp has
   [Sys.int_size - 9] bits. When [invalidate] wraps it past
   [max_generation] back to 0, entries stamped in the stamp's previous
   life would read as fresh at the same masked value — the cache resets
   the table on wrap so that can never happen. [set_generation] is the
   test hook that jumps near the edge without 2^54 invalidate calls. *)
let test_flow_cache_generation_wraparound () =
  let c = Flow_cache.create () in
  Flow_cache.set_generation c Flow_cache.max_generation;
  Alcotest.(check int) "at the edge" Flow_cache.max_generation
    (Flow_cache.generation c);
  Flow_cache.store c ~flow_hash:11 3;
  Alcotest.(check (option int)) "served at max generation" (Some 3)
    (Flow_cache.find c ~flow_hash:11);
  Flow_cache.invalidate c;
  Alcotest.(check int) "stamp wrapped to zero" 0 (Flow_cache.generation c);
  Alcotest.(check int) "table reset on wrap" 0 (Flow_cache.resident c);
  Alcotest.(check (option int)) "previous-life entry not served" None
    (Flow_cache.find c ~flow_hash:11);
  (* A fresh store in the wrapped generation behaves normally. *)
  Flow_cache.store c ~flow_hash:11 9;
  Alcotest.(check (option int)) "fresh store after wrap" (Some 9)
    (Flow_cache.find c ~flow_hash:11);
  Alcotest.(check bool) "stamp above max rejected" true
    (try
       Flow_cache.set_generation c (Flow_cache.max_generation + 1);
       false
     with Err.Invalid _ -> true)

(* Property: whatever generation the cache sits at (including the wrap
   edge), a decision stored before [invalidate] is never served after
   it, at any capacity: 0 picks the default, anything else a tight
   bound the clock hand must evict under. *)
let flow_cache_qcheck_stale_never_served =
  QCheck.Test.make ~name:"stale generation never serves a cached decision"
    ~count:500
    QCheck.(triple (int_bound 1_000_000) (int_bound 200) (int_bound 8))
    (fun (gen_offset, flow_hash, cap) ->
      let c =
        if cap = 0 then Flow_cache.create ()
        else Flow_cache.create ~capacity:cap ()
      in
      (* Land anywhere in the stamp space, biased onto the wrap edge
         half the time. *)
      let g =
        if gen_offset mod 2 = 0 then Flow_cache.max_generation - (gen_offset / 2)
        else gen_offset
      in
      Flow_cache.set_generation c g;
      Flow_cache.store c ~flow_hash (flow_hash land 255);
      Flow_cache.invalidate c;
      Flow_cache.find c ~flow_hash = None)

(* ------------------------------------------------------------------ *)
(* Flow cache: bounded mode (clock-hand eviction)                      *)

let test_flow_cache_capacity_enforced () =
  let cap = 4 in
  let c = Flow_cache.create ~capacity:cap () in
  for k = 0 to 9 do
    Flow_cache.store c ~flow_hash:k (k land 255)
  done;
  Alcotest.(check int) "resident bounded by the capacity" cap (Flow_cache.resident c);
  Alcotest.(check int) "evictions account for the overflow" 6
    (Flow_cache.evictions c);
  (* The most recent insert is always resident. *)
  Alcotest.(check (option int)) "latest key served" (Some 9)
    (Flow_cache.find c ~flow_hash:9);
  (* The default capacity is 1024 flows, so ten never evict. *)
  let u = Flow_cache.create () in
  for k = 0 to 9 do
    Flow_cache.store u ~flow_hash:k 1
  done;
  Alcotest.(check int) "default never evicts here" 0 (Flow_cache.evictions u);
  for k = 10 to 1023 do
    Flow_cache.store u ~flow_hash:k 1
  done;
  Alcotest.(check int) "default capacity holds 1024" 0 (Flow_cache.evictions u);
  Flow_cache.store u ~flow_hash:1024 1;
  Alcotest.(check int) "default capacity is 1024" 1 (Flow_cache.evictions u)

(* Second chance: inserts set the ref bit, so the first overflow sweeps
   one full round (clearing every bit) and evicts the oldest slot,
   leaving the survivors' bits clear. From that state a hit re-arms one
   key's bit and the next overflow must skip it and take the cold
   neighbour instead — run the same trace without the hit as a control
   to pin the counterfactual victim. *)
let test_flow_cache_second_chance () =
  let replay ~hit =
    let c = Flow_cache.create ~capacity:3 () in
    Flow_cache.store c ~flow_hash:100 1;
    Flow_cache.store c ~flow_hash:200 2;
    Flow_cache.store c ~flow_hash:300 3;
    (* Overflow #1 evicts the oldest (100) and clears 200/300's bits. *)
    Flow_cache.store c ~flow_hash:400 4;
    if hit then
      Alcotest.(check (option int)) "re-armed key hit" (Some 2)
        (Flow_cache.find c ~flow_hash:200);
    Flow_cache.store c ~flow_hash:500 5;
    c
  in
  let c = replay ~hit:true in
  Alcotest.(check (option int)) "hot key survives the sweep" (Some 2)
    (Flow_cache.find c ~flow_hash:200);
  Alcotest.(check (option int)) "cold neighbour evicted instead" None
    (Flow_cache.find c ~flow_hash:300);
  Alcotest.(check int) "two evictions" 2 (Flow_cache.evictions c);
  (* Control: without the hit the hand takes 200 first. *)
  let c0 = replay ~hit:false in
  Alcotest.(check (option int)) "unhit key is the victim" None
    (Flow_cache.find c0 ~flow_hash:200);
  Alcotest.(check (option int)) "neighbour survives" (Some 3)
    (Flow_cache.find c0 ~flow_hash:300)

(* The oracle: the cache's former unbounded mode, kept verbatim — a
   Hashtbl from flow hash to packed (generation, path) entry that grows
   with the flow population and never evicts. *)
module Unbounded_cache = struct
  let path_bits = 8

  let max_path = (1 lsl path_bits) - 1

  let gen_mask = (1 lsl (Sys.int_size - 1 - path_bits)) - 1

  type t = {
    table : (int, int) Hashtbl.t;
    mutable generation : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    { table = Hashtbl.create 1024; generation = 0; hits = 0; misses = 0 }

  let find t ~flow_hash =
    match Hashtbl.find_opt t.table flow_hash with
    | Some packed when packed lsr path_bits = t.generation ->
        t.hits <- t.hits + 1;
        Some (packed land max_path)
    | Some _ | None ->
        t.misses <- t.misses + 1;
        None

  let store t ~flow_hash path =
    let packed = (t.generation lsl path_bits) lor path in
    Hashtbl.replace t.table flow_hash packed

  let invalidate t =
    let next = (t.generation + 1) land gen_mask in
    if next = 0 then Hashtbl.reset t.table;
    t.generation <- next

  let resident t = Hashtbl.length t.table
end

(* Differential property: with capacity >= the number of distinct keys a
   trace can touch, the cache never evicts and is observationally
   identical to an unbounded map — same find results, same hit/miss
   counters — across arbitrary store/find/invalidate interleavings. *)
let flow_cache_qcheck_bounded_matches_unbounded =
  QCheck.Test.make
    ~name:"capacity >= distinct keys is observationally unbounded" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 120) (pair (int_bound 31) (int_bound 20)))
    (fun ops ->
      let b = Flow_cache.create ~capacity:32 () in
      let u = Unbounded_cache.create () in
      let agree = ref true in
      List.iter
        (fun (key, op) ->
          if op < 8 then begin
            (* store *)
            let path = (key * 7) land 255 in
            Flow_cache.store b ~flow_hash:key path;
            Unbounded_cache.store u ~flow_hash:key path
          end
          else if op < 20 then begin
            if
              Flow_cache.find b ~flow_hash:key
              <> Unbounded_cache.find u ~flow_hash:key
            then agree := false
          end
          else begin
            Flow_cache.invalidate b;
            Unbounded_cache.invalidate u
          end)
        ops;
      !agree
      && Flow_cache.evictions b = 0
      && Flow_cache.hits b = u.Unbounded_cache.hits
      && Flow_cache.misses b = u.Unbounded_cache.misses
      && Flow_cache.resident b = Unbounded_cache.resident u)

(* Hit-rate is monotone in capacity over a fixed skewed trace: more room
   can only turn misses into hits. (True for this deterministic replay;
   clock caches admit Belady anomalies on adversarial traces, which is
   why the trace is pinned.) *)
let test_flow_cache_hit_rate_monotone () =
  let trace =
    (* Skewed LCG trace over 64 keys: low keys dominate, like the
       heavy-tailed flow mix. *)
    let state = ref 12345 in
    Array.init 4_000 (fun _ ->
        state := ((!state * 1103515245) + 12) land 0x3FFFFFFF;
        let u = !state mod 64 and v = (!state lsr 10) mod 64 in
        min u v)
  in
  let hits_at capacity =
    let c = Flow_cache.create ~capacity () in
    Array.iter
      (fun key ->
        match Flow_cache.find c ~flow_hash:key with
        | Some _ -> ()
        | None -> Flow_cache.store c ~flow_hash:key 1)
      trace;
    Flow_cache.hits c
  in
  let caps = [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  let series = List.map hits_at caps in
  List.iteri
    (fun i h ->
      if i > 0 && h < List.nth series (i - 1) then
        Alcotest.failf "hit count fell from %d to %d at capacity %d"
          (List.nth series (i - 1)) h (List.nth caps i))
    series;
  (* Capacity >= keyspace replays with only compulsory misses. *)
  let distinct =
    let seen = Hashtbl.create 64 in
    Array.iter (fun k -> Hashtbl.replace seen k ()) trace;
    Hashtbl.length seen
  in
  Alcotest.(check int) "full capacity only compulsory misses"
    (Array.length trace - distinct)
    (List.nth series (List.length series - 1))

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_dataplane"
    [
      ( "clock",
        [
          tc "offset" `Quick test_clock_offset;
          tc "owd_ms_into" `Quick test_clock_owd_ms_into;
        ] );
      ( "tunnel",
        [
          tc "seq advances" `Quick test_tunnel_seq_advances;
          tc "owd synced" `Quick test_tunnel_owd_with_synced_clocks;
          tc "owd offset constant" `Quick test_tunnel_owd_offset_is_constant;
          tc "raw packet rejected" `Quick test_tunnel_receive_raw_packet_rejected;
        ] );
      ( "seq_tracker",
        [
          tc "observe allocation" `Quick test_tracker_alloc;
          tc "table int forms" `Quick test_tracker_table_int_forms;
          tc "in order" `Quick test_tracker_in_order;
          tc "loss" `Quick test_tracker_loss;
          tc "reorder heals" `Quick test_tracker_reorder_heals_loss;
          tc "duplicates" `Quick test_tracker_duplicates;
          qc tracker_qcheck_permutation_no_loss;
        ] );
      ( "ecmp",
        [
          tc "lane stability" `Quick test_ecmp_lane_stability;
          tc "spread" `Quick test_ecmp_spread;
          tc "lane delays" `Quick test_ecmp_lane_delay;
        ] );
      ( "fabric",
        [
          tc "delivers" `Quick test_fabric_delivers;
          tc "latency sums links" `Quick test_fabric_latency_is_sum_of_links;
          tc "unroutable" `Quick test_fabric_unroutable;
          tc "extra delay" `Quick test_fabric_extra_delay_applied;
          tc "ecmp lanes" `Quick test_fabric_lanes_differentiate_flows;
          tc "link state sized by node count" `Quick
            test_fabric_link_state_sized_by_nodes;
          tc "link snapshot (Vultr)" `Quick test_fabric_link_snapshot_vultr;
          qc fabric_qcheck_link_snapshot;
          tc "link ids validated" `Quick test_fabric_link_ids_validated;
          tc "hop memo = per-hop lookup under BGP churn" `Quick
            test_fabric_hop_memo_differential;
        ] );
      ( "queueing",
        [
          tc "off by default" `Quick test_fabric_no_contention_by_default;
        ] );
      ( "batch",
        [
          tc "forms agree" `Quick test_fabric_batch_forms_agree;
          tc "fallback" `Quick test_fabric_batch_fallback;
          tc "equal endpoint, another value" `Quick test_fabric_batch_equal_endpoint;
          tc "endpoint table = one batch per endpoint" `Quick
            test_fabric_batch_endpoint_table;
          tc "failed endpoint falls back alone, in slot order" `Quick
            test_fabric_batch_failed_endpoint;
        ] );
      ( "flow_cache",
        [
          tc "hit/miss" `Quick test_flow_cache_hit_miss;
          tc "generation invalidation" `Quick test_flow_cache_invalidation;
          tc "path bounds" `Quick test_flow_cache_path_bounds;
          tc "generation wraparound" `Quick test_flow_cache_generation_wraparound;
          qc flow_cache_qcheck_stale_never_served;
          tc "bounded capacity enforced" `Quick test_flow_cache_capacity_enforced;
          tc "second chance" `Quick test_flow_cache_second_chance;
          qc flow_cache_qcheck_bounded_matches_unbounded;
          tc "hit-rate monotone in capacity" `Quick
            test_flow_cache_hit_rate_monotone;
        ] );
    ]
