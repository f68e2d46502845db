(* Multicore batched dataplane throughput pipeline (DESIGN.md §11).

   This is the end-to-end packet path — encap, fabric forwarding, decap,
   per-flow measurement — run at maximum rate across flow-sharded domain
   lanes. Flows are partitioned by 5-tuple hash onto N lanes
   (Shard.lane_of_hash); every lane owns a full, independent copy of the
   world (topology, converged BGP tables, fabric, flow cache, sequence
   trackers), so the per-packet path takes no lock and shares no mutable
   state. Each lane folds every arrival it drains into its own partial
   results — an order-insensitive fingerprint (sum + xor of per-record
   hashes), per-path delivery counts and one-way-delay sums — and after
   every lane is joined the caller adds the partials up, lane by lane.

   Determinism at any domain count is by construction:

   - a flow's packets all live on one lane, and that lane processes them
     in (virtual-arrival-time, sequence) order via per-path FIFO rings —
     the per-flow observation order Seq_tracker sees is therefore a pure
     function of the workload, never of the lane count;
   - every per-packet quantity (send time, path choice, synthetic drop,
     arrival time, one-way delay) is computed from seeds, flow hashes
     and generation indices alone;
   - the fingerprint and the counts are commutative integer sums and
     xors, so which lane folded a record, and in what order the lanes'
     partials are added, cannot affect them. The per-path delay sums are
     floats: each lane adds its arrivals in its own drain order and the
     partials are added in lane order, so they are reproducible for a
     fixed lane count (and identical to a single global pass at one
     domain).

   The virtual workload: [flows] flows each send one packet per
   generation (generations are [gen_interval_s] apart); every
   [epoch_gens] generations the flow cache is invalidated and the
   per-flow path assignment rotates by one, putting fresh packets on a
   path whose delay differs from the in-flight ones' (reordering);
   a deterministic hash of (flow, generation) drops ~0.8% of packets
   before they enter the fabric (loss). Paths have distinct delays, so
   rotation genuinely overlaps old and new paths in flight.

   The packet path proper (Flow_cache hit -> encap into the batch's
   columns -> batched fabric send -> decap into the path rings ->
   drain into columns -> Seq_tracker observe -> fold) allocates
   nothing: there is no packet record, every per-packet value lives in
   a preallocated int or float column, and floats cross module
   boundaries only inside float arrays.
   What a lane still allocates is the trackers' sets of missing
   sequence numbers, on loss and reordering, and a few words per
   generation — about 0.2 minor words per packet. With no young data
   alive, minor collections stay rare at any domain count, so the lanes
   run on the runtime's default minor heap. The process-wide Metric
   registry is frozen during the parallel phase and the per-lane counts
   are published once, at the quiesce point after every domain is
   joined. *)

module Engine = Tango_sim.Engine
module Shard = Tango_sim.Shard
module Topology = Tango_topo.Topology
module Link = Tango_topo.Link
module Network = Tango_bgp.Network
module Addr = Tango_net.Addr
module Flow = Tango_net.Flow
module Fnv = Tango_net.Fnv
module Packet = Tango_net.Packet
module Fabric = Tango_dataplane.Fabric
module Batch = Tango_dataplane.Batch
module Clock = Tango_dataplane.Clock
module Flow_cache = Tango_dataplane.Flow_cache
module Seq_tracker = Tango_dataplane.Seq_tracker
module Metric = Tango_obs.Metric
module Load = Tango_workload.Load

(* Process-wide observability, published only at quiesce points. *)
let m_offered =
  Metric.counter ~help:"Throughput pipeline: packets offered"
    "throughput_packets_offered_total"

let m_synthetic =
  Metric.counter ~help:"Throughput pipeline: synthetic pre-fabric drops"
    "throughput_synthetic_drops_total"

let m_lost =
  Metric.counter ~help:"Throughput pipeline: packets lost (tracker totals)"
    "throughput_packets_lost_total"

let m_reordered =
  Metric.counter ~help:"Throughput pipeline: reordered arrivals"
    "throughput_packets_reordered_total"

let g_lanes =
  Metric.gauge ~help:"Throughput pipeline: lanes of the last run"
    "throughput_lanes"

let m_evicted =
  Metric.counter ~help:"Throughput pipeline: flow-cache entries evicted"
    "throughput_cache_evictions_total"

let g_hit_rate =
  Metric.gauge ~help:"Throughput pipeline: flow-cache hit rate of the last run"
    "throughput_cache_hit_rate"

let g_cache_resident =
  Metric.gauge ~help:"Throughput pipeline: flow-cache entries resident at quiesce"
    "throughput_cache_resident"

let g_tracker_resident =
  Metric.gauge
    ~help:"Throughput pipeline: tracker provisional entries resident at quiesce"
    "throughput_tracker_resident"

let g_tracker_active =
  Metric.gauge ~help:"Throughput pipeline: trackers that saw traffic"
    "throughput_tracker_active_keys"

let paths = 4

let payload_bytes = 512

let gen_interval_s = 0.001

let epoch_gens = 25

(* ------------------------------------------------------------------ *)
(* Deterministic workload ingredients.                                  *)

(* Pre-fabric loss: a splitmix-style hash of (flow hash, generation)
   drops 8/1024 of offered packets, independent of lane count. *)
let[@hot] synthetic_drop ~flow_hash ~gen =
  let m = flow_hash lxor (gen * 0x2545F4914F6CDD1D) in
  let m = m lxor (m lsr 29) in
  m land 1023 < 8

(* ------------------------------------------------------------------ *)
(* Per-lane world: topology, converged BGP, fabric, measurement state.  *)

(* Star topology with [paths] disjoint two-hop routes, every link
   jitter-free and loss-free so all routes are "plain" (batched fast
   path) and arrival times are closed-form. [first_hop_ms] sets the
   sender-to-transit delay of each path (the transit-to-receiver hop is
   a fixed 0.3 ms).

   The E14 ladder (first hops 0.7 + 0.6i; 1.0, 1.6, 2.2, 2.8 ms end to
   end) steps by more than the 1 ms generation interval, so every epoch
   rotation overlaps old and new paths in flight — the reordering
   source. The load-engine ladder (1.0, 1.3, 2.9, 1.6 ms end to end) is
   deliberately non-monotone: path 1 over path 0 reproduces the paper's
   ~30% default-route penalty (E2) for the E16 gate, while the
   2.9 -> 1.6 ms drop at the path-2-to-3 rotation exceeds one
   generation interval and keeps reordering alive for stride-1 flows. *)
(* Computed, not literal: 0.7 +. 0.6 differs from the literal 1.3 in
   the last bit, and the E14 fingerprints are bit-exact across
   releases. *)
let e14_first_hops =
  Array.init paths (fun i -> 0.7 +. (0.6 *. float_of_int i))

let load_first_hops = [| 0.7; 1.0; 2.6; 1.3 |]

let build_topology ~first_hop_ms () =
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

type lane_env = {
  l_fabric : Fabric.t;
  l_dsts : Addr.t array;  (* per-path tunnel endpoints at site 1 *)
  l_clock : Clock.t;
  l_cache : Flow_cache.t;
  l_track : Seq_tracker.Table.t;  (* one tracker per lane-owned flow *)
  l_local : int array;  (* global flow id -> lane-local tracker key *)
  l_path_rings : Shard.Ring.t array;  (* in-flight arrivals, per path *)
  l_batch : Batch.t;
  l_t0 : float;  (* virtual time of generation 0 (post-convergence) *)
  mutable l_epoch : int;
  mutable l_offered : int;
  mutable l_synthetic : int;
  mutable l_delivered : int;
  (* The lane's fold of every arrival it drained. *)
  mutable l_fp_sum : int;
  mutable l_fp_xor : int;
  l_path_delivered : int array;  (* per path id *)
  l_owd_sum : float array;  (* per path id, ms, in drain order *)
  mutable l_minor_words : float;  (* minor-heap words the lane allocated *)
  mutable l_major_words : float;  (* major-heap words the lane allocated *)
}

(* Per-lane state is sized by what the lane actually owns: [own_flows]
   trackers (not the global flow count — a million-flow run at 4 lanes
   would otherwise hold 4 x 10^6 trackers), rings sized by the peak
   per-generation offered load, and a flow cache bounded by
   [cache_capacity] (per lane; [None] sizes it to the flow count, so it
   never evicts). *)
let build_lane_env ~seed ~first_hop_ms ~cache_expected ~cache_capacity
    ~tracker_ceiling ~tracker_idle_gens ~ring_cap ~own_flows ~local =
  let topo = build_topology ~first_hop_ms () in
  let engine = Engine.create ~seed () in
  let net = Network.create topo engine in
  let plan1 =
    Addressing.carve ~block:Addressing.default_block ~site_index:1
      ~path_count:paths
  in
  List.iteri
    (fun i prefix -> Network.announce net ~node:(1 + paths + i) prefix ())
    plan1.Addressing.tunnel_prefixes;
  ignore (Network.converge net);
  let fabric = Fabric.create ~seed net in
  let dsts =
    Array.init paths (fun p -> Addressing.tunnel_endpoint plan1 ~path:p)
  in
  Array.iteri
    (fun p dst ->
      if not (Fabric.route_plain fabric ~from_node:0 ~dst) then
        invalid_arg
          (Printf.sprintf "Throughput: path %d is not plain-routable" p))
    dsts;
  {
    l_fabric = fabric;
    l_dsts = dsts;
    l_clock = Clock.create ();
    l_cache =
      Flow_cache.create ~expected_flows:cache_expected ?capacity:cache_capacity
        ();
    l_track =
      Seq_tracker.Table.create ~ceiling:tracker_ceiling
        ~idle_generations:tracker_idle_gens ~keys:own_flows ();
    l_local = local;
    l_path_rings =
      (* In-flight bound: arrivals are drained every generation and the
         slowest path holds under 4 generations of flight time, so no
         ring ever holds more than 4 generations of the peak offered
         load. *)
      Array.init paths (fun _ -> Shard.Ring.create ~capacity:ring_cap);
    l_batch = Batch.create ();
    l_t0 = Engine.now engine;
    l_epoch = 0;
    l_offered = 0;
    l_synthetic = 0;
    l_delivered = 0;
    l_fp_sum = 0;
    l_fp_xor = 0;
    l_path_delivered = Array.make paths 0;
    l_owd_sum = Array.make paths 0.0;
    l_minor_words = 0.0;
    l_major_words = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* The lane body: the per-packet hot path.                              *)

(* Arrivals the drain pops into its columns before the trackers
   observe them and the lane folds them. *)
let drain_chunk = 1024

(* The IEEE bits of a float column's slot [i], as a non-negative int:
   read from the array, so the float is never boxed. *)
let[@inline] float_bits col i =
  Int64.to_int (Int64.bits_of_float (Array.unsafe_get col i)) land max_int

(* FNV-style fold of one delivered-packet record (arrival time, flow,
   sequence, path, one-way delay), with the float fields as their bits.
   Only record fields go in — never lane ids or wall time — so the
   commutative (sum, xor) aggregate is identical at every domain count
   and batch size. *)
let[@inline] record_hash ~tb ~a ~b ~c ~vb =
  let mix h v = Fnv.mix h v land max_int in
  mix (mix (mix (mix 0x811C9DC5 tb) a) ((b lsl 3) lxor c)) vb

(* Virtual send time of generation [gen], as a boxed float: the lane
   passes it to other modules once per batch, and a let-bound float the
   compiler kept unboxed would be boxed afresh at every such call. *)
let[@inline never] gen_time env gen = env.l_t0 +. (float_of_int gen *. gen_interval_s)

(* Words this domain has allocated so far, (minor, major). Both counters
   read the calling domain's own allocation pointers, so they count
   allocations no collection has credited yet ([Gc.quick_stat] would
   miss them until the domain's next minor collection). *)
let words_now () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

(* The lane loop walks the plan's compiled send lists (Load.Sends) —
   only the flows that send in a generation are ever visited — and runs
   the pipeline a stage at a time over batches of at most [batch_limit]
   sends: tracker pruning, path decision, encap into the batch's
   columns, one fabric call, decap into the per-path rings. Once per
   generation the rings drain into columns, then the trackers observe
   the drained arrivals and the lane folds them into its partial
   results. Every stateful layer (the trackers, the cache, the fabric,
   the rings) sees its calls in the same order as a packet-at-a-time
   loop would make them. Per packet the loop allocates nothing but the
   trackers' int-set updates on loss and reordering: sends live in the
   batch's columns, and floats move between modules only inside float
   arrays. *)
let lane_main env ~flow_hashes ~my_flows ~plan ~generations ~batch_limit =
  (* Compiled here, inside the timed phase, from this lane's own flows. *)
  let sends = Load.Sends.create plan ~flows:my_flows in
  let batch = env.l_batch in
  let bytes = Packet.tunnel_wire_size ~payload_bytes in
  let path_of = Array.make Batch.capacity 0 in
  let owd_ms = Array.make Batch.capacity 0.0 in
  (* Drain every arrival up to [upto] into the columns in
     (arrival-time, sequence) order (Shard.drain_into), a chunk at a
     time; the trackers observe each arrival in that order and the lane
     folds it into its fingerprint and per-path sums. *)
  let dt = Array.make drain_chunk 0.0 in
  let da = Array.make drain_chunk 0 in
  let db = Array.make drain_chunk 0 in
  let dc = Array.make drain_chunk 0 in
  let dv = Array.make drain_chunk 0.0 in
  let drain upto =
    let k = ref drain_chunk in
    while !k = drain_chunk do
      k :=
        Shard.drain_into env.l_path_rings ~upto ~time:dt ~a:da ~b:db ~c:dc ~v:dv;
      for i = 0 to !k - 1 do
        let a = Array.unsafe_get da i in
        let b = Array.unsafe_get db i in
        let c = Array.unsafe_get dc i in
        Seq_tracker.Table.observe_int env.l_track
          ~key:(Array.unsafe_get env.l_local a) b;
        let h = record_hash ~tb:(float_bits dt i) ~a ~b ~c ~vb:(float_bits dv i) in
        env.l_fp_sum <- (env.l_fp_sum + h) land max_int;
        env.l_fp_xor <- env.l_fp_xor lxor h;
        env.l_path_delivered.(c) <- env.l_path_delivered.(c) + 1;
        env.l_owd_sum.(c) <- env.l_owd_sum.(c) +. Array.unsafe_get dv i
      done;
      env.l_delivered <- env.l_delivered + !k
    done
  in
  let minor0, major0 = words_now () in
  for gen = 0 to generations - 1 do
    let ts = gen_time env gen in
    drain ts;
    (* Generation tick for tracker aging: with aging off this only
       advances a counter; with [idle_generations > 0] it expires
       trackers whose flows went quiet past the horizon. *)
    ignore (Seq_tracker.Table.advance_generation env.l_track);
    let epoch = gen / epoch_gens in
    if epoch <> env.l_epoch then begin
      env.l_epoch <- epoch;
      Flow_cache.invalidate env.l_cache
    end;
    (* Every send of a generation leaves at [ts]: one sender-clock stamp
       per batch. *)
    Batch.set_stamp_ns batch
      (Int64.to_int (Clock.now_ns env.l_clock ~sim_time_s:ts));
    (* Schedule: this generation's slice of the compiled lists — (flow,
       send index) pairs in ascending flow order. The send index is the
       flow's tunnel sequence number. *)
    Load.Sends.seek sends ~gen;
    let sf = Load.Sends.flows sends and sq = Load.Sends.seqs sends in
    let last = Load.Sends.stop sends ~gen in
    let next = ref (Load.Sends.first sends ~gen) in
    while !next < last do
      let lo = !next in
      let hi = Int.min last (lo + batch_limit) in
      next := hi;
      (* Tracker: every 8th send the flow confirms losses older than its
         reordering horizon (the slowest path holds under 4 generations
         of flight time and strides are >= 1 generation, so sequence
         sidx - 8 can no longer arrive), bounding the tracker's
         provisional-missing set the way a real switch's fixed-size map
         would. *)
      for i = lo to hi - 1 do
        let sidx = Array.unsafe_get sq i in
        if sidx > 8 && sidx land 7 = 0 then
          Seq_tracker.Table.confirm_below_int env.l_track
            ~key:(Array.unsafe_get env.l_local (Array.unsafe_get sf i))
            (sidx - 8)
      done;
      (* Path decision through the bounded cache. *)
      for i = lo to hi - 1 do
        let h = Array.unsafe_get flow_hashes (Array.unsafe_get sf i) in
        let path =
          match Flow_cache.find env.l_cache ~flow_hash:h with
          | Some p -> p
          | None ->
              let p = (h + epoch) mod paths in
              Flow_cache.store env.l_cache ~flow_hash:h p;
              p
        in
        Array.unsafe_set path_of (i - lo) path
      done;
      (* Synthetic drop, then encap into the batch's columns. *)
      env.l_offered <- env.l_offered + (hi - lo);
      for i = lo to hi - 1 do
        let f = Array.unsafe_get sf i in
        if synthetic_drop ~flow_hash:(Array.unsafe_get flow_hashes f) ~gen then
          env.l_synthetic <- env.l_synthetic + 1
        else begin
          let path = Array.unsafe_get path_of (i - lo) in
          Batch.encap batch
            ~dst:(Array.unsafe_get env.l_dsts path)
            ~bytes ~path ~flow:f ~seq:(Array.unsafe_get sq i)
        end
      done;
      let n = Batch.length batch in
      if n > 0 then begin
        (* Fabric: one call per batch, arrivals into the batch. *)
        Fabric.send_batch_direct env.l_fabric ~from_node:0 ~now_s:ts batch;
        if Fabric.direct_fallbacks env.l_fabric <> 0 then
          failwith "Throughput.run: direct path fell back to the canonical send";
        (* Decap: the one-way delay from the batch's switch timestamp,
           then every arrival onto its path's FIFO ring. *)
        Clock.owd_ms_into env.l_clock ~stamp_ns:batch.Batch.stamp_ns
          batch.Batch.arrival ~into:owd_ms n;
        Shard.scatter env.l_path_rings ~time:batch.Batch.arrival
          ~a:batch.Batch.flow ~b:batch.Batch.seq ~c:batch.Batch.path ~v:owd_ms n;
        Batch.clear batch
      end
    done
  done;
  drain infinity;
  let minor1, major1 = words_now () in
  env.l_minor_words <- minor1 -. minor0;
  env.l_major_words <- major1 -. major0

(* ------------------------------------------------------------------ *)
(* Reduction and results.                                               *)

type result = {
  domains : int;
  batch : int;
  flows : int;
  generations : int;
  offered : int;
  delivered : int;
  synthetic_drops : int;
  lost : int;
  reordered : int;
  duplicates : int;
  cache_hits : int;
  cache_misses : int;
  cache_capacity : int;  (* per-lane bound; 0 = sized to the flow count *)
  cache_evictions : int;
  cache_resident : int;  (* summed over lanes at quiesce *)
  tracker_active : int;  (* trackers that saw traffic, summed over lanes *)
  tracker_resident : int;  (* provisional entries at quiesce *)
  tracker_resident_peak : int;  (* sum of per-lane high-water marks *)
  tracker_ceiling : int;  (* per-lane advisory bound; 0 = none *)
  tracker_idle_gens : int;  (* aging horizon; 0 = off *)
  tracker_evictions : int;  (* idle trackers expired, summed over lanes *)
  path_delivered : int array;  (* deliveries per path id *)
  path_owd_ms : float array;  (* mean one-way delay per path id *)
  merged : int;
  fingerprint_sum : int;
  fingerprint_xor : int;
  wall_s : float;
  pps : float;
  minor_words_per_packet : float;
  major_words_per_packet : float;
}

let run ?(domains = 1) ?(batch = Batch.capacity) ?(flows = 512)
    ?(generations = 2000) ?(seed = 42) ?plan ?cache_capacity
    ?(tracker_ceiling = 0) ?(tracker_idle_gens = 0) () =
  if domains <= 0 then invalid_arg "Throughput.run: non-positive domains";
  if batch <= 0 || batch > Batch.capacity then
    invalid_arg "Throughput.run: batch outside [1, 64]";
  if flows <= 0 then invalid_arg "Throughput.run: non-positive flows";
  if generations <= 0 then
    invalid_arg "Throughput.run: non-positive generations";
  (match cache_capacity with
  | Some c when c <= 0 ->
      invalid_arg "Throughput.run: non-positive cache capacity"
  | _ -> ());
  if tracker_ceiling < 0 then
    invalid_arg "Throughput.run: negative tracker ceiling";
  if tracker_idle_gens < 0 then
    invalid_arg "Throughput.run: negative tracker idle generations";
  (* A [plan] replaces the uniform full-mesh workload (and its [flows] /
     [generations] arguments) with the million-flow engine's schedule;
     the tighter 0.3 ms path-delay spread puts the default-over-best
     one-way-delay ratio at the paper's ~30% (E2/E16). *)
  let uniform = Option.is_none plan in
  let plan =
    match plan with Some p -> p | None -> Load.uniform ~flows ~generations
  in
  let first_hop_ms = if uniform then e14_first_hops else load_first_hops in
  let flows = Load.flows plan in
  let generations = Load.generations plan in
  (* Shared immutable workload: flow hashes, lane assignment. *)
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
  let flow_hashes =
    Array.init flows (fun i ->
        Flow.hash_5tuple
          (Flow.v ~src ~dst ~proto:17
             ~src_port:(1024 + (i mod 60000))
             ~dst_port:(5000 + (i / 60000))))
  in
  let flow_lane =
    Array.init flows (fun f -> Shard.lane_of_hash ~lanes:domains flow_hashes.(f))
  in
  let lane_flows = Array.make domains 0 in
  Array.iter (fun l -> lane_flows.(l) <- lane_flows.(l) + 1) flow_lane;
  (* Per-lane flow index lists (in increasing flow order, so each lane
     visits its flows in the same order at any lane count): the lane
     loop walks only its own flows instead of filtering all of them —
     the filter scan was per-generation fixed cost scaling with the
     lane count. *)
  let lane_flow_idx =
    let next = Array.make domains 0 in
    let idx = Array.init domains (fun l -> Array.make (max 1 lane_flows.(l)) 0) in
    Array.iteri
      (fun f l ->
        idx.(l).(next.(l)) <- f;
        next.(l) <- next.(l) + 1)
      flow_lane;
    Array.init domains (fun l -> Array.sub idx.(l) 0 lane_flows.(l))
  in
  (* Every lane's world is built on the main domain, outside the timed
     region (BGP convergence is setup, not dataplane). Per-lane sizing:
     trackers for owned flows only, rings for 4 generations of the peak
     offered load — at 10^6 flows the old
     global-flow-count-times-lane-count sizing would be quadratic. *)
  let ring_cap = (4 * Load.max_gen_sends plan) + 8 in
  let cache_expected =
    match cache_capacity with Some c -> c | None -> flows
  in
  let envs =
    Array.init domains (fun l ->
        let local = Array.make flows (-1) in
        Array.iteri (fun i f -> local.(f) <- i) lane_flow_idx.(l);
        build_lane_env ~seed ~first_hop_ms ~cache_expected ~cache_capacity
          ~tracker_ceiling ~tracker_idle_gens ~ring_cap
          ~own_flows:lane_flows.(l) ~local)
  in
  (* Freeze the process-wide registry while lanes run: the direct path
     never touches it, and freezing turns any accidental use into a
     no-op instead of a cross-domain race. *)
  let metrics_were_enabled = Metric.enabled () in
  Metric.set_enabled false;
  (* Start the timed phase from an empty minor heap: set-up garbage (BGP
     convergence, env construction) is promoted now, not by a collection
     inside lane 0 that would count it as the lane's major words. A full
     major collection is not needed — a run that starts from a settled
     heap makes no collection in its lane phase — and it would add about
     1.3 ms to the blast's 0.7 ms of set-up. *)
  Gc.minor ();
  (* tango-lint: allow determinism-wallclock — wall time feeds the pps gauge only; fingerprints and merged outputs never include it *)
  let started = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> Metric.set_enabled metrics_were_enabled)
    (fun () ->
      Shard.run ~lanes:domains ~lane:(fun ~lane ->
          lane_main envs.(lane) ~flow_hashes ~my_flows:lane_flow_idx.(lane)
            ~plan ~generations ~batch_limit:batch));
  (* tango-lint: allow determinism-wallclock — wall time feeds the pps gauge only; fingerprints and merged outputs never include it *)
  let wall_s = Unix.gettimeofday () -. started in
  (* Quiesce point: all lanes joined; add up the lanes' partials, in lane
     order, and publish the counts. *)
  let fp_sum = ref 0 in
  let fp_xor = ref 0 in
  let path_delivered = Array.make paths 0 in
  let path_owd_sum = Array.make paths 0.0 in
  let offered = ref 0 in
  let delivered = ref 0 in
  let synthetic = ref 0 in
  let lost = ref 0 in
  let reordered = ref 0 in
  let duplicates = ref 0 in
  let hits = ref 0 in
  let misses = ref 0 in
  let evictions = ref 0 in
  let cache_resident = ref 0 in
  let tracker_active = ref 0 in
  let tracker_resident = ref 0 in
  let tracker_peak = ref 0 in
  let tracker_evictions = ref 0 in
  let minor_words = ref 0.0 in
  let major_words = ref 0.0 in
  Array.iter
    (fun env ->
      Fabric.quiesce_metrics env.l_fabric;
      fp_sum := (!fp_sum + env.l_fp_sum) land max_int;
      fp_xor := !fp_xor lxor env.l_fp_xor;
      for p = 0 to paths - 1 do
        path_delivered.(p) <- path_delivered.(p) + env.l_path_delivered.(p);
        path_owd_sum.(p) <- path_owd_sum.(p) +. env.l_owd_sum.(p)
      done;
      offered := !offered + env.l_offered;
      delivered := !delivered + env.l_delivered;
      synthetic := !synthetic + env.l_synthetic;
      hits := !hits + Flow_cache.hits env.l_cache;
      misses := !misses + Flow_cache.misses env.l_cache;
      evictions := !evictions + Flow_cache.evictions env.l_cache;
      cache_resident := !cache_resident + Flow_cache.resident env.l_cache;
      tracker_active := !tracker_active + Seq_tracker.Table.active_keys env.l_track;
      tracker_resident := !tracker_resident + Seq_tracker.Table.resident env.l_track;
      tracker_peak := !tracker_peak + Seq_tracker.Table.resident_peak env.l_track;
      tracker_evictions :=
        !tracker_evictions + Seq_tracker.Table.evictions env.l_track;
      minor_words := !minor_words +. env.l_minor_words;
      major_words := !major_words +. env.l_major_words;
      lost := !lost + Seq_tracker.Table.lost_total env.l_track;
      reordered := !reordered + Seq_tracker.Table.reordered_total env.l_track;
      duplicates := !duplicates + Seq_tracker.Table.duplicates_total env.l_track)
    envs;
  Metric.add m_offered !offered;
  Metric.add m_synthetic !synthetic;
  Metric.add m_lost !lost;
  Metric.add m_reordered !reordered;
  Metric.add m_evicted !evictions;
  Metric.set g_lanes (float_of_int domains);
  Metric.set_ratio g_hit_rate ~num:!hits ~den:(!hits + !misses);
  Metric.set g_cache_resident (float_of_int !cache_resident);
  Metric.set g_tracker_resident (float_of_int !tracker_resident);
  Metric.set g_tracker_active (float_of_int !tracker_active);
  let per_offered words =
    if !offered > 0 then words /. float_of_int !offered else 0.0
  in
  let path_owd_ms =
    Array.init paths (fun p ->
        if path_delivered.(p) = 0 then 0.0
        else path_owd_sum.(p) /. float_of_int path_delivered.(p))
  in
  {
    domains;
    batch;
    flows;
    generations;
    offered = !offered;
    delivered = !delivered;
    synthetic_drops = !synthetic;
    lost = !lost;
    reordered = !reordered;
    duplicates = !duplicates;
    cache_hits = !hits;
    cache_misses = !misses;
    cache_capacity = (match cache_capacity with Some c -> c | None -> 0);
    cache_evictions = !evictions;
    cache_resident = !cache_resident;
    tracker_active = !tracker_active;
    tracker_resident = !tracker_resident;
    tracker_resident_peak = !tracker_peak;
    tracker_ceiling;
    tracker_idle_gens;
    tracker_evictions = !tracker_evictions;
    path_delivered;
    path_owd_ms;
    merged = Array.fold_left ( + ) 0 path_delivered;
    fingerprint_sum = !fp_sum;
    fingerprint_xor = !fp_xor;
    wall_s;
    pps = (if wall_s > 0.0 then float_of_int !offered /. wall_s else 0.0);
    minor_words_per_packet = per_offered !minor_words;
    major_words_per_packet = per_offered !major_words;
  }

let fingerprint r = Printf.sprintf "%015x-%015x" r.fingerprint_sum r.fingerprint_xor

let print_timing r =
  Printf.printf
    "  domains %d batch %d wall %.3f s -> %.3f Mpps (%.4f minor, %.4f major \
     words/pkt)\n"
    r.domains r.batch r.wall_s (r.pps /. 1e6) r.minor_words_per_packet
    r.major_words_per_packet

let print_summary ?(timing = true) r =
  Printf.printf "throughput: flows %d paths %d generations %d offered %d\n"
    r.flows paths r.generations r.offered;
  Printf.printf
    "  delivered %d synthetic-drops %d lost %d reordered %d duplicates %d\n"
    r.delivered r.synthetic_drops r.lost r.reordered r.duplicates;
  Printf.printf "  flow-cache hits %d misses %d\n" r.cache_hits r.cache_misses;
  Printf.printf "  fingerprint %s merged %d\n" (fingerprint r) r.merged;
  if timing then print_timing r

(* The E2 policy-quality ratio under load: mean one-way delay on path 1
   (the BGP-default route in the load topology) over path 0 (the best
   cooperative route). ~1.3 by construction of the load delay ladder;
   E16 gates that a million-flow mix still measures it. *)
let default_over_best r =
  if Array.length r.path_owd_ms < 2 || r.path_owd_ms.(0) <= 0.0 then 0.0
  else r.path_owd_ms.(1) /. r.path_owd_ms.(0)

let hit_rate r =
  let total = r.cache_hits + r.cache_misses in
  if total = 0 then 0.0 else float_of_int r.cache_hits /. float_of_int total

(* Everything above the timing line is deterministic for a fixed
   (plan, domains): totals and fingerprints are domain-count-invariant;
   cache and tracker figures depend on the lane partition but not on
   scheduling, so repeat runs are byte-identical (the CLI's
   [load --fingerprint] mode). *)
let print_load_summary ?(timing = true) plan r =
  Printf.printf "load: %s\n" (Format.asprintf "%a" Load.pp_summary plan);
  Printf.printf
    "  offered %d delivered %d synthetic-drops %d lost %d reordered %d \
     duplicates %d\n"
    r.offered r.delivered r.synthetic_drops r.lost r.reordered r.duplicates;
  Printf.printf
    "  flow-cache capacity %d hits %d misses %d hit-rate %.4f evictions %d \
     resident %d\n"
    r.cache_capacity r.cache_hits r.cache_misses (hit_rate r) r.cache_evictions
    r.cache_resident;
  Printf.printf "  trackers active %d resident %d peak %d ceiling %d\n"
    r.tracker_active r.tracker_resident r.tracker_resident_peak
    r.tracker_ceiling;
  (* Printed only when aging is armed, so default-off runs stay
     byte-identical to the pre-aging output. *)
  if r.tracker_idle_gens > 0 then
    Printf.printf "  tracker-aging idle-gens %d evictions %d\n"
      r.tracker_idle_gens r.tracker_evictions;
  Array.iteri
    (fun p n ->
      Printf.printf "  path %d delivered %d mean-owd %.4f ms\n" p n
        r.path_owd_ms.(p))
    r.path_delivered;
  Printf.printf "  policy default/best owd ratio %.4f\n" (default_over_best r);
  Printf.printf "  fingerprint %s merged %d\n" (fingerprint r) r.merged;
  if timing then print_timing r
