(* The batched-lane workloads (blast-512, heavytail-10k).

   The untraced run is [Throughput.run] itself. The traced run is this
   file's own lane runner: the lane loop of [Throughput] rebuilt from
   the same public calls (Load, Flow_cache, Packet, Fabric, Shard,
   Seq_tracker), running each lane in turn on the main domain with the
   same flow partition. Its loop is split into per-batch phases so that
   every layer runs as one contiguous timed section: schedule scan,
   tracker pruning, cache decision, encap, [Fabric.send_batch_direct]
   (whose callback only collects packets), decap; and per generation,
   ring drain and tracker observation. The call order into each
   stateful layer is unchanged, so its totals must equal
   [Throughput.run]'s for the same (plan, domains, seed) — the
   differential check in [compare].

   The constants below restate the workload [Throughput] runs (path
   count, payload, generation interval, path-rotation epoch, delay
   ladders, synthetic-drop hash, record digest); the differential is
   what proves the restatement exact. *)

module Throughput = Tango.Throughput
module Addressing = Tango.Addressing
module Load = Tango_workload.Load
module Shard = Tango_sim.Shard
module Engine = Tango_sim.Engine
module Topology = Tango_topo.Topology
module Link = Tango_topo.Link
module Network = Tango_bgp.Network
module Addr = Tango_net.Addr
module Flow = Tango_net.Flow
module Packet = Tango_net.Packet
module Fabric = Tango_dataplane.Fabric
module Batch = Tango_dataplane.Batch
module Clock = Tango_dataplane.Clock
module Flow_cache = Tango_dataplane.Flow_cache
module Seq_tracker = Tango_dataplane.Seq_tracker
module Metric = Tango_obs.Metric

type config = {
  uniform : bool;  (* E14 full-mesh blast; otherwise a Load.default_config plan *)
  flows : int;
  generations : int;
  domains : int;
  batch : int;
  cache_capacity : int option;  (* per lane; None = unbounded *)
  tracker_ceiling : int;
}

let args c =
  [
    ("schedule", if c.uniform then "uniform" else "load-default");
    ("flows", string_of_int c.flows);
    ("generations", string_of_int c.generations);
    ("domains", string_of_int c.domains);
    ("batch", string_of_int c.batch);
    ( "cache_capacity",
      match c.cache_capacity with Some n -> string_of_int n | None -> "unbounded" );
    ("tracker_ceiling", string_of_int c.tracker_ceiling);
  ]

let make_plan c ~seed =
  if c.uniform then Load.uniform ~flows:c.flows ~generations:c.generations
  else
    Load.plan
      (Load.default_config ~flows:c.flows ~generations:c.generations ~seed ())

(* ------------------------------------------------------------------ *)
(* Untraced: the library pipeline.                                     *)

type rep = { r : Throughput.result; setup_s : float }

(* One user-visible job: compile the schedule, then run it. Set-up is
   the plan compile plus the part of [Throughput.run] outside its timed
   lane phase (world build, BGP convergence, heap settling). *)
let run_library c ~seed plan =
  Span.timed (fun () ->
      Throughput.run ~domains:c.domains ~batch:c.batch ~flows:c.flows
        ~generations:c.generations ~seed
        ?plan:(if c.uniform then None else Some plan)
        ?cache_capacity:c.cache_capacity ~tracker_ceiling:c.tracker_ceiling ())

let rep c ~seed =
  let plan, plan_s = Span.timed (fun () -> make_plan c ~seed) in
  let r, elapsed = run_library c ~seed plan in
  { r; setup_s = plan_s +. (elapsed -. r.Throughput.wall_s) }

(* ------------------------------------------------------------------ *)
(* The workload Throughput runs, restated.                             *)

let paths = 4
let payload_bytes = 512
let gen_interval_s = 0.001
let epoch_gens = 25
let e14_first_hops = Array.init paths (fun i -> 0.7 +. (0.6 *. float_of_int i))
let load_first_hops = [| 0.7; 1.0; 2.6; 1.3 |]

let synthetic_drop ~flow_hash ~gen =
  let m = flow_hash lxor (gen * 0x2545F4914F6CDD1D) in
  let m = m lxor (m lsr 29) in
  m land 1023 < 8

let record_hash (r : Shard.record) =
  let mix h v = (h lxor v) * 0x100000001B3 land max_int in
  let tb = Int64.to_int (Int64.bits_of_float r.Shard.time) land max_int in
  let vb = Int64.to_int (Int64.bits_of_float r.Shard.v) land max_int in
  mix
    (mix (mix (mix 0x811C9DC5 tb) r.Shard.a) ((r.Shard.b lsl 3) lxor r.Shard.c))
    vb

let build_topology ~first_hop_ms =
  let topo = Topology.create () in
  Topology.add_node topo ~id:0 ~asn:64500 "sender";
  for i = 0 to paths - 1 do
    let transit = 1 + i and receiver = 1 + paths + i in
    Topology.add_node topo ~id:transit ~asn:(64600 + i)
      (Printf.sprintf "transit-%d" i);
    Topology.add_node topo ~id:receiver ~asn:(64700 + i)
      (Printf.sprintf "receiver-%d" i);
    Topology.connect topo ~provider:transit ~customer:0
      ~link:(Link.v ~jitter_ms:0.0 ~bandwidth_mbps:100_000.0 first_hop_ms.(i))
      ();
    Topology.connect topo ~provider:transit ~customer:receiver
      ~link:(Link.v ~jitter_ms:0.0 ~bandwidth_mbps:100_000.0 0.3) ()
  done;
  topo

(* ------------------------------------------------------------------ *)
(* Traced lane runner.                                                 *)

let st_scan = 0
let st_tracker = 1
let st_cache = 2
let st_encap = 3
let st_fabric = 4
let st_decap = 5
let st_drain = 6
let stages = 7

let stage_names =
  [|
    "load.scan";
    "seq_tracker";
    "flow_cache";
    "packet.encap";
    "fabric.send_batch_direct";
    "packet.decap";
    "shard.drain";
  |]

(* Per-stage accumulators: this generation's (for its spans) and the
   whole run's. *)
type acc = {
  busy : int array;
  first : int array;
  last : int array;
  calls : int array;
  total : int array;
}

let stop a s t0 =
  let t1 = Span.now_ns () in
  a.busy.(s) <- a.busy.(s) + (t1 - t0);
  if a.calls.(s) = 0 then a.first.(s) <- t0;
  a.last.(s) <- t1;
  a.calls.(s) <- a.calls.(s) + 1

(* Close one generation: emit its span, one child span per stage it
   ran, and return the stage coverage of the generation span. *)
let close_gen tr a ~parent ~gen ~start_ns ~end_ns =
  let g =
    Span.add tr ~parent ~gen ~busy_ns:(end_ns - start_ns) ~calls:1
      "lane.generation" ~start_ns ~end_ns
  in
  let covered = ref 0 in
  for s = 0 to stages - 1 do
    if a.calls.(s) > 0 then begin
      ignore
        (Span.add tr ~parent:g ~gen ~busy_ns:a.busy.(s) ~calls:a.calls.(s)
           stage_names.(s) ~start_ns:a.first.(s) ~end_ns:a.last.(s));
      covered := !covered + a.busy.(s);
      a.total.(s) <- a.total.(s) + a.busy.(s)
    end;
    a.busy.(s) <- 0;
    a.calls.(s) <- 0
  done;
  float_of_int !covered /. float_of_int (max 1 (end_ns - start_ns))

type flow_slot = { f_flow : Flow.t; f_hash : int }

type lane = {
  fabric : Fabric.t;
  dsts : Addr.t array;
  outer_src : Addr.t;
  clock : Clock.t;
  cache : Flow_cache.t;
  track : Seq_tracker.Table.t;
  local : int array;
  path_rings : Shard.Ring.t array;
  batch : Batch.t;
  t0 : float;
  mutable epoch : int;
  mutable offered : int;
  mutable synthetic : int;
  mutable delivered : int;
}

let build_lane ~seed ~first_hop_ms ~cache_expected ~cache_capacity
    ~tracker_ceiling ~ring_cap ~own_flows ~local ~bgp_ns =
  let topo = build_topology ~first_hop_ms in
  let engine = Engine.create ~seed () in
  let net = Network.create topo engine in
  let plan1 =
    Addressing.carve ~block:Addressing.default_block ~site_index:1
      ~path_count:paths
  in
  List.iteri
    (fun i prefix -> Network.announce net ~node:(1 + paths + i) prefix ())
    plan1.Addressing.tunnel_prefixes;
  let t0 = Span.now_ns () in
  ignore (Network.converge net);
  bgp_ns := !bgp_ns + (Span.now_ns () - t0);
  let fabric = Fabric.create ~seed net in
  let dsts =
    Array.init paths (fun p -> Addressing.tunnel_endpoint plan1 ~path:p)
  in
  Array.iter
    (fun dst ->
      if not (Fabric.route_plain fabric ~from_node:0 ~dst) then
        failwith "lane runner: path is not plain-routable")
    dsts;
  let plan0 =
    Addressing.carve ~block:Addressing.default_block ~site_index:0
      ~path_count:paths
  in
  {
    fabric;
    dsts;
    outer_src = Addressing.host_address plan0 1L;
    clock = Clock.create ();
    cache =
      Flow_cache.create ~expected_flows:cache_expected ?capacity:cache_capacity
        ();
    track =
      Seq_tracker.Table.create ~ceiling:tracker_ceiling ~keys:own_flows ();
    local;
    path_rings = Array.init paths (fun _ -> Shard.Ring.create ~capacity:ring_cap);
    batch = Batch.create ();
    t0 = Engine.now engine;
    epoch = 0;
    offered = 0;
    synthetic = 0;
    delivered = 0;
  }

let chunk_cap = 4096

type counts = { mutable checks : int; mutable coverage : float list }

let run_lane tr a cnt ~parent env out ~flows ~my_flows ~plan ~uniform
    ~generations ~batch_limit =
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 1 lsl 23 };
  let nflows = Array.length flows in
  let nmy = Array.length my_flows in
  let cf = Array.make chunk_cap 0 in
  let cs = Array.make chunk_cap 0 in
  let cd = Array.make chunk_cap false in
  let cp = Array.make chunk_cap 0 in
  let dummy =
    Packet.create ~id:0 ~flow:flows.(0).f_flow ~payload_bytes ~created_at:0.0 ()
  in
  let col = Array.make Batch.capacity dummy in
  let col_at = Array.make Batch.capacity 0.0 in
  let ncol = ref 0 in
  let collect ~node:_ ~at_s p =
    col.(!ncol) <- p;
    col_at.(!ncol) <- at_s;
    incr ncol
  in
  let dt = Array.make chunk_cap 0.0 in
  let da = Array.make chunk_cap 0 in
  let db = Array.make chunk_cap 0 in
  let scratch = Shard.scratch () in
  (* Drain arrivals up to [upto] in (arrival time, sequence) order, a
     chunk at a time: pop into the out ring (drain), then feed the
     chunk to the trackers in the same order (tracker). *)
  let drain upto =
    let continue = ref true in
    while !continue do
      let t0 = Span.now_ns () in
      let k = ref 0 in
      let more = ref true in
      while !more && !k < chunk_cap do
        let best = ref (-1) in
        let best_t = ref infinity in
        let best_seq = ref max_int in
        for p = 0 to paths - 1 do
          let ring = env.path_rings.(p) in
          if not (Shard.Ring.is_empty ring) then begin
            let tp = Shard.Ring.peek_time ring in
            let c = Float.compare tp !best_t in
            if c < 0 || (c = 0 && Shard.Ring.peek_b ring < !best_seq) then begin
              best := p;
              best_t := tp;
              best_seq := Shard.Ring.peek_b ring
            end
          end
        done;
        if !best < 0 || !best_t > upto then more := false
        else begin
          Shard.pop_into env.path_rings.(!best) scratch;
          dt.(!k) <- scratch.Shard.time;
          da.(!k) <- scratch.Shard.a;
          db.(!k) <- scratch.Shard.b;
          Shard.Ring.push out ~time:scratch.Shard.time ~a:scratch.Shard.a
            ~b:scratch.Shard.b ~c:scratch.Shard.c ~v:scratch.Shard.v;
          incr k
        end
      done;
      stop a st_drain t0;
      if !k > 0 then begin
        let t0 = Span.now_ns () in
        for i = 0 to !k - 1 do
          Seq_tracker.Table.observe ~now_s:dt.(i) env.track
            ~key:env.local.(da.(i))
            (Int64.of_int db.(i))
        done;
        env.delivered <- env.delivered + !k;
        stop a st_tracker t0
      end;
      if not !more then continue := false
    done
  in
  for gen = 0 to generations - 1 do
    let g0 = Span.now_ns () in
    let ts = env.t0 +. (float_of_int gen *. gen_interval_s) in
    drain ts;
    let t0 = Span.now_ns () in
    ignore (Seq_tracker.Table.advance_generation env.track);
    stop a st_tracker t0;
    let epoch = gen / epoch_gens in
    if epoch <> env.epoch then begin
      let t0 = Span.now_ns () in
      env.epoch <- epoch;
      Flow_cache.invalidate env.cache;
      stop a st_cache t0
    end;
    let ts_ns = Clock.now_ns env.clock ~sim_time_s:ts in
    let fi = ref 0 in
    while !fi < nmy do
      (* Schedule scan: the next sends of this generation, up to one
         batch of packets that survive the synthetic drop. *)
      let t0 = Span.now_ns () in
      let n = ref 0 and live = ref 0 in
      while !fi < nmy && !live < batch_limit && !n < chunk_cap do
        let f = my_flows.(!fi) in
        incr fi;
        let sends =
          uniform
          || begin
               cnt.checks <- cnt.checks + 1;
               Load.sends_at plan ~flow:f ~gen
             end
        in
        if sends then begin
          cf.(!n) <- f;
          cs.(!n) <- (if uniform then gen else Load.seq_index plan ~flow:f ~gen);
          let d = synthetic_drop ~flow_hash:flows.(f).f_hash ~gen in
          cd.(!n) <- d;
          if not d then incr live;
          incr n
        end
      done;
      stop a st_scan t0;
      let n = !n in
      if n > 0 then begin
        let t0 = Span.now_ns () in
        for i = 0 to n - 1 do
          let sidx = cs.(i) in
          if sidx > 8 && sidx land 7 = 0 then
            Seq_tracker.Table.confirm_below env.track ~key:env.local.(cf.(i))
              (Int64.of_int (sidx - 8))
        done;
        stop a st_tracker t0;
        let t0 = Span.now_ns () in
        for i = 0 to n - 1 do
          let h = flows.(cf.(i)).f_hash in
          cp.(i) <-
            (match Flow_cache.find env.cache ~flow_hash:h with
            | Some p -> p
            | None ->
                let p = (h + epoch) mod paths in
                Flow_cache.store env.cache ~flow_hash:h p;
                p)
        done;
        stop a st_cache t0;
        let t0 = Span.now_ns () in
        for i = 0 to n - 1 do
          env.offered <- env.offered + 1;
          if cd.(i) then env.synthetic <- env.synthetic + 1
          else begin
            let f = cf.(i) and path = cp.(i) in
            let packet =
              Packet.create
                ~id:((gen * nflows) + f)
                ~flow:flows.(f).f_flow ~payload_bytes ~created_at:ts ()
            in
            Packet.encapsulate packet
              {
                Packet.outer_src = env.outer_src;
                outer_dst = env.dsts.(path);
                udp_src = 40000 + path;
                udp_dst = 4789;
                tango =
                  {
                    Packet.timestamp_ns = ts_ns;
                    seq = Int64.of_int cs.(i);
                    path_id = path;
                    flags = 0;
                  };
              };
            Batch.add env.batch packet
          end
        done;
        stop a st_encap t0;
        if not (Batch.is_empty env.batch) then begin
          let t0 = Span.now_ns () in
          ncol := 0;
          Fabric.send_batch_direct env.fabric ~from_node:0 ~now_s:ts
            ~on_delivered_at:collect env.batch;
          Batch.clear env.batch;
          stop a st_fabric t0;
          let t0 = Span.now_ns () in
          for k = 0 to !ncol - 1 do
            let packet = col.(k) in
            let e = Packet.decapsulate packet in
            let owd_ns =
              Int64.sub
                (Clock.now_ns env.clock ~sim_time_s:col_at.(k))
                e.Packet.tango.Packet.timestamp_ns
            in
            Shard.Ring.push
              env.path_rings.(e.Packet.tango.Packet.path_id)
              ~time:col_at.(k)
              ~a:(packet.Packet.id mod nflows)
              ~b:(Int64.to_int e.Packet.tango.Packet.seq)
              ~c:e.Packet.tango.Packet.path_id
              ~v:(Int64.to_float owd_ns /. 1e6);
            col.(k) <- dummy
          done;
          stop a st_decap t0
        end
      end
    done;
    Batch.purge env.batch;
    let g1 = Span.now_ns () in
    cnt.coverage <- close_gen tr a ~parent ~gen ~start_ns:g0 ~end_ns:g1 :: cnt.coverage
  done;
  let g0 = Span.now_ns () in
  drain infinity;
  ignore
    (close_gen tr a ~parent ~gen:generations ~start_ns:g0 ~end_ns:(Span.now_ns ()));
  Gc.set gc

type traced = {
  offered : int;
  delivered : int;
  synthetic_drops : int;
  lost : int;
  reordered : int;
  duplicates : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  tracker_resident_peak : int;
  path_delivered : int array;
  merged : int;
  fp_sum : int;
  fp_xor : int;
  checks : int;
  stage_ns : int array;  (* summed busy time per stage *)
  merge_ns : int;
  bgp_ns : int;
  lanes_ns : int;  (* lane loops plus merge: the traced packet phase *)
  ring_bytes : int;
  coverage : float array;  (* per generation *)
}

let run_traced c ~seed ~plan tr ~parent =
  let uniform = c.uniform in
  let first_hop_ms = if uniform then e14_first_hops else load_first_hops in
  let domains = c.domains in
  let flows = Load.flows plan and generations = Load.generations plan in
  let plan0 =
    Addressing.carve ~block:Addressing.default_block ~site_index:0
      ~path_count:paths
  in
  let plan1 =
    Addressing.carve ~block:Addressing.default_block ~site_index:1
      ~path_count:paths
  in
  let src = Addressing.host_address plan0 1L in
  let dst = Addressing.host_address plan1 2L in
  let slots =
    Array.init flows (fun i ->
        let f =
          Flow.v ~src ~dst ~proto:17
            ~src_port:(1024 + (i mod 60000))
            ~dst_port:(5000 + (i / 60000))
        in
        { f_flow = f; f_hash = Flow.hash_5tuple f })
  in
  let lane_of = Array.map (fun s -> Shard.lane_of_hash ~lanes:domains s.f_hash) slots in
  let lane_flows =
    Array.init domains (fun l ->
        let own = ref [] in
        for f = flows - 1 downto 0 do
          if lane_of.(f) = l then own := f :: !own
        done;
        Array.of_list !own)
  in
  let lane_sends =
    Array.map
      (fun own ->
        if uniform then Array.length own * generations
        else Array.fold_left (fun n f -> n + Load.flow_pkts plan f) 0 own)
      lane_flows
  in
  let ring_cap = (4 * Load.max_gen_sends plan) + 8 in
  let cache_expected = Option.value c.cache_capacity ~default:flows in
  let bgp_ns = ref 0 in
  let lanes, _ =
    Span.time tr ~parent "lane.world_build" (fun () ->
        Array.map
          (fun own ->
            let local = Array.make flows (-1) in
            Array.iteri (fun i f -> local.(f) <- i) own;
            build_lane ~seed ~first_hop_ms ~cache_expected
              ~cache_capacity:c.cache_capacity ~tracker_ceiling:c.tracker_ceiling
              ~ring_cap ~own_flows:(Array.length own) ~local ~bgp_ns)
          lane_flows)
  in
  let outs = Array.map (fun n -> Shard.Ring.create ~capacity:(max 1 n)) lane_sends in
  let a =
    {
      busy = Array.make stages 0;
      first = Array.make stages 0;
      last = Array.make stages 0;
      calls = Array.make stages 0;
      total = Array.make stages 0;
    }
  in
  let cnt = { checks = 0; coverage = [] } in
  let was_enabled = Metric.enabled () in
  Metric.set_enabled false;
  Gc.full_major ();
  let p0 = Span.now_ns () in
  Array.iteri
    (fun l env ->
      let s = Span.start tr ~parent (Printf.sprintf "lane.%d" l) in
      run_lane tr a cnt ~parent:s env outs.(l) ~flows:slots
        ~my_flows:lane_flows.(l) ~plan ~uniform ~generations
        ~batch_limit:c.batch;
      Span.finish s)
    lanes;
  let merged = ref 0 and fp_sum = ref 0 and fp_xor = ref 0 in
  let path_delivered = Array.make paths 0 in
  let (), merge =
    Span.time tr ~parent "shard.merge" (fun () ->
        Shard.merge outs ~consume:(fun ~lane:_ r ->
            incr merged;
            let h = record_hash r in
            fp_sum := (!fp_sum + h) land max_int;
            fp_xor := !fp_xor lxor h;
            path_delivered.(r.Shard.c) <- path_delivered.(r.Shard.c) + 1))
  in
  Metric.set_enabled was_enabled;
  Array.iter
    (fun env ->
      if Fabric.direct_fallbacks env.fabric <> 0 then
        failwith "lane runner: direct path fell back to the canonical send")
    lanes;
  let sum f = Array.fold_left (fun n env -> n + f env) 0 lanes in
  let ring_bytes =
    let slot = 40 in
    Array.fold_left (fun n r -> n + (slot * Shard.Ring.capacity r)) 0 outs
    + sum (fun env ->
          Array.fold_left
            (fun n r -> n + (slot * Shard.Ring.capacity r))
            0 env.path_rings)
  in
  {
    offered = sum (fun e -> e.offered);
    delivered = sum (fun e -> e.delivered);
    synthetic_drops = sum (fun e -> e.synthetic);
    lost = sum (fun e -> Seq_tracker.Table.lost_total e.track);
    reordered = sum (fun e -> Seq_tracker.Table.reordered_total e.track);
    duplicates = sum (fun e -> Seq_tracker.Table.duplicates_total e.track);
    cache_hits = sum (fun e -> Flow_cache.hits e.cache);
    cache_misses = sum (fun e -> Flow_cache.misses e.cache);
    cache_evictions = sum (fun e -> Flow_cache.evictions e.cache);
    tracker_resident_peak = sum (fun e -> Seq_tracker.Table.resident_peak e.track);
    path_delivered;
    merged = !merged;
    fp_sum = !fp_sum;
    fp_xor = !fp_xor;
    checks = cnt.checks;
    stage_ns = a.total;
    merge_ns = merge.Span.busy_ns;
    bgp_ns = !bgp_ns;
    lanes_ns = merge.Span.end_ns - p0;
    ring_bytes;
    coverage = Array.of_list (List.rev cnt.coverage);
  }

(* Every total the traced runner and [Throughput.run] share, as
   (name, traced, library). *)
let compare (t : traced) (r : Throughput.result) =
  [
    ("offered", t.offered, r.Throughput.offered);
    ("delivered", t.delivered, r.Throughput.delivered);
    ("synthetic_drops", t.synthetic_drops, r.Throughput.synthetic_drops);
    ("lost", t.lost, r.Throughput.lost);
    ("reordered", t.reordered, r.Throughput.reordered);
    ("duplicates", t.duplicates, r.Throughput.duplicates);
    ("cache_hits", t.cache_hits, r.Throughput.cache_hits);
    ("cache_misses", t.cache_misses, r.Throughput.cache_misses);
    ("cache_evictions", t.cache_evictions, r.Throughput.cache_evictions);
    ( "tracker_resident_peak",
      t.tracker_resident_peak,
      r.Throughput.tracker_resident_peak );
    ("merged", t.merged, r.Throughput.merged);
    ("fingerprint_sum", t.fp_sum, r.Throughput.fingerprint_sum);
    ("fingerprint_xor", t.fp_xor, r.Throughput.fingerprint_xor);
  ]
  @ List.init paths (fun p ->
        ( Printf.sprintf "path%d_delivered" p,
          t.path_delivered.(p),
          r.Throughput.path_delivered.(p) ))
