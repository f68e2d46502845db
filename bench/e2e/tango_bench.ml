(* End-to-end benchmark of the Tango dataplane.

     tango_bench --workload NAME|all [--seed N] [--seconds S]
                 [--trace 0|1|FILE] [--quick]

   Each workload is a batch: its offered schedule is fixed in virtual
   time and the benchmark measures how fast the program works through
   it, repeating the job for [--seconds] of wall time (one warm-up job,
   then at least two timed ones) and reporting medians. After each job
   the reference kernel of [Calib] runs, and the end-to-end times and
   rates are scaled by its speed, so the host's own drift cancels; the
   unscaled values are printed as [raw_*] metric lines. It prints every
   metric as
   [metric <workload>.<name> <value> <unit>], every output check as
   [check <workload>.<name> PASS|FAIL], and, as its last line, one JSON
   object {correct, attempted, failed, metrics}. Without tracing the
   metrics are the end-to-end ones; with [--trace 1] (spans to
   bench/e2e/out/spans-<workload>.jsonl) or [--trace FILE] a separate
   traced pass runs and the metrics are the per-layer ones. Any failed
   check exits 1. [--workload all] runs every workload in its own child
   process, so peak RSS is per workload. *)

let workloads = [ "blast-512"; "heavytail-10k"; "mesh-64"; "pair-vultr" ]

(* End-to-end metrics, reported on every workload from untraced runs;
   the two timings are scaled to the reference host speed. *)
let end_to_end = [ ("delivered_pps", "1/s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

(* Per-layer metrics from the traced pass: name, unit, layer, and the
   end-to-end metric it should move. A layer a workload does not run
   reads 0. *)
let per_layer =
  [
    ("load.checks_per_pkt", "1/pkt", "workload.Load", "delivered_pps");
    ("load.ns_per_pkt", "ns/pkt", "workload.Load", "delivered_pps");
    ("load.plan_s", "s", "workload.Load", "setup_s");
    ("flow_cache.ns_per_pkt", "ns/pkt", "dataplane.Flow_cache", "delivered_pps");
    ("flow_cache.hit_rate", "share", "dataplane.Flow_cache", "delivered_pps");
    ("flow_cache.evictions_per_pkt", "1/pkt", "dataplane.Flow_cache", "delivered_pps");
    ("packet.encap_ns_per_pkt", "ns/pkt", "net.Packet", "delivered_pps");
    ("packet.decap_ns_per_pkt", "ns/pkt", "net.Packet", "delivered_pps");
    ("fabric.direct_ns_per_pkt", "ns/pkt", "dataplane.Fabric", "delivered_pps");
    ("fabric.hops_per_pkt", "1/pkt", "dataplane.Fabric", "delivered_pps");
    ("shard.drain_ns_per_pkt", "ns/pkt", "sim.Shard", "delivered_pps");
    ("shard.merge_ns_per_pkt", "ns/pkt", "sim.Shard", "delivered_pps");
    ("shard.ring_mb", "MB", "sim.Shard", "peak_rss_mb");
    ("seq_tracker.ns_per_pkt", "ns/pkt", "dataplane.Seq_tracker", "delivered_pps");
    ("seq_tracker.resident_peak", "count", "dataplane.Seq_tracker", "peak_rss_mb");
    ("bgp.converge_s", "s", "bgp.Network", "setup_s");
    ("engine.events_per_pkt", "1/pkt", "sim.Engine", "delivered_pps");
    ("engine.ns_per_event", "ns/event", "sim.Engine", "delivered_pps");
    ("pop.send_app_ns", "ns/call", "core.Pop", "delivered_pps");
    ("pop.policy_evals_per_app_pkt", "1/pkt", "core.Policy", "delivered_pps");
    ("pop.cache_hit_rate", "share", "core.Pop", "delivered_pps");
    ("pop.app_p50_ms", "virtual_ms", "core.Pop", "delivered_pps");
    ("pop.app_p99_ms", "virtual_ms", "core.Pop", "delivered_pps");
    ("mesh.reroutes_per_frame", "1/frame", "mesh.Relay", "delivered_pps");
    ("mesh.control_msgs_per_frame", "1/frame", "mesh.Gossip", "delivered_pps");
    ("mesh.recovery_ms", "virtual_ms", "mesh.Arbor", "delivered_pps");
    ("attest.excused_share", "share", "mesh.Attest", "delivered_pps");
    ("mtopo.build_s", "s", "mesh.Mtopo", "setup_s");
    ("arbor.build_s", "s", "mesh.Arbor", "setup_s");
    ("dataplane.loss_share", "share", "dataplane", "delivered_pps");
    ("gc.minor_words_per_pkt", "words/pkt", "OCaml runtime", "delivered_pps");
    ("gc.major_words_per_pkt", "words/pkt", "OCaml runtime", "peak_rss_mb");
    ("gc.minor_collections", "count", "OCaml runtime", "delivered_pps");
    ("gc.major_collections", "count", "OCaml runtime", "peak_rss_mb");
    ("trace.overhead", "share", "benchmark", "delivered_pps");
    ("trace.coverage", "share", "benchmark", "delivered_pps");
  ]

(* ------------------------------------------------------------------ *)
(* Small helpers.                                                      *)

let median l =
  match List.sort Float.compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Run [f] once to warm caches and lazy set-up, discarding the result,
   then at least [min_reps] more times and until [seconds] of wall time
   have passed since the start, warm-up included. Each job starts from a
   settled heap, as in a fresh process, so neither its timings nor the
   peak RSS depend on how many jobs ran before it. *)
let repeat ~seconds ~min_reps f =
  let t0 = Span.now_ns () in
  Gc.full_major ();
  ignore (f ());
  let rec go acc n =
    Gc.full_major ();
    let acc = f () :: acc in
    if n + 1 >= min_reps && float_of_int (Span.now_ns () - t0) /. 1e9 >= seconds then
      List.rev acc
    else go acc (n + 1)
  in
  go [] 0

let proc_status_field key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            let k = String.length key in
            if String.length line > k && String.sub line 0 k = key then
              Some (String.trim (String.sub line k (String.length line - k)))
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  match proc_status_field "VmHWM:" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> nan)
  | None -> nan

(* CPUs this process may run on — what nproc prints. *)
let nproc () =
  match proc_status_field "Cpus_allowed_list:" with
  | None -> 0
  | Some v ->
      List.fold_left
        (fun n range ->
          match String.split_on_char '-' range with
          | [ a; b ] -> n + int_of_string b - int_of_string a + 1
          | [ _ ] -> n + 1
          | _ -> n)
        0
        (String.split_on_char ',' v)

type gc_delta = { minor_words : float; major_words : float; minor_gcs : int; major_gcs : int }

(* GC work of [f ()], from a settled heap so that repeated passes count
   the same collections. *)
let gc_measure f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      major_words = s1.Gc.major_words -. s0.Gc.major_words;
      minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let gc_layers g ~pkts =
  [
    ("gc.minor_words_per_pkt", g.minor_words /. float_of_int (max 1 pkts));
    ("gc.major_words_per_pkt", g.major_words /. float_of_int (max 1 pkts));
    ("gc.minor_collections", float_of_int g.minor_gcs);
    ("gc.major_collections", float_of_int g.major_gcs);
  ]

(* Per-key medians over the traced passes. *)
let median_layers passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) -> (k, median (List.map (fun p -> List.assoc k p) passes)))
        first

(* ------------------------------------------------------------------ *)
(* What one workload run produces.                                     *)

(* One timed job, unscaled, with the host-speed factor measured right
   after it ([Calib.factor]). *)
type job = { pps : float; setup_s : float; factor : float }

type outcome = {
  args : (string * string) list;
  jobs : job list;
  quality : (string * float * string) list;  (* deterministic, printed *)
  layers : (string * float) list;
  checks : (string * bool * string) list;
  attempted : int;
  failed : int;
}

type run = { seed : int; seconds : float; trace : bool; spans : Span.t }

(* A check made once per traced pass keeps one line: its first failure,
   or else its last pass. *)
let checker () =
  let checks = ref [] in
  let check name ok detail =
    let same (n, _, _) = String.equal n name in
    match List.find_opt same !checks with
    | Some (_, false, _) -> ()
    | _ -> checks := (name, ok, detail) :: List.filter (fun c -> not (same c)) !checks
  in
  (check, fun () -> List.rev !checks)

let all_equal l = match l with [] -> true | x :: rest -> List.for_all (( = ) x) rest

(* ------------------------------------------------------------------ *)
(* Lane workloads.                                                     *)

let lanes_workload (c : Lanes.config) rn =
  let check, checks = checker () in
  let seed = rn.seed in
  let reps =
    repeat ~seconds:(if rn.trace then 0.0 else rn.seconds) ~min_reps:2 (fun () ->
        let rep = Lanes.rep c ~seed in
        (rep, Calib.factor ~job_s:rep.Lanes.r.Tango.Throughput.wall_s))
  in
  let results = List.map (fun ((r : Lanes.rep), _) -> r.Lanes.r) reps in
  let r0 = List.hd results in
  let module T = Tango.Throughput in
  check "conservation"
    (List.for_all
       (fun r -> r.T.offered = r.T.delivered + r.T.synthetic_drops)
       results)
    (Printf.sprintf "offered %d = delivered %d + synthetic_drops %d" r0.T.offered
       r0.T.delivered r0.T.synthetic_drops);
  check "merged"
    (List.for_all (fun r -> r.T.merged = r.T.delivered) results)
    (Printf.sprintf "merged %d = delivered %d" r0.T.merged r0.T.delivered);
  check "duplicates"
    (List.for_all (fun r -> r.T.duplicates = 0) results)
    (Printf.sprintf "%d" r0.T.duplicates);
  check "repeat_fingerprint"
    (all_equal (List.map T.fingerprint results))
    (Printf.sprintf "%s over %d runs" (T.fingerprint r0) (List.length results));
  (* E16's gates, on the heavy-tailed plan. *)
  if not c.Lanes.uniform then begin
    let hr = T.hit_rate r0 in
    check "cache_hit_rate" (hr > 0.5 && hr <= 1.0) (Printf.sprintf "%.4f in (0.5, 1]" hr);
    check "tracker_ceiling"
      (r0.T.tracker_resident_peak <= c.Lanes.domains * c.Lanes.tracker_ceiling)
      (Printf.sprintf "peak %d <= %d x %d" r0.T.tracker_resident_peak
         c.Lanes.domains c.Lanes.tracker_ceiling);
    let d = T.default_over_best r0 in
    check "default_over_best"
      (d >= 1.25 && d <= 1.35)
      (Printf.sprintf "%.4f in [1.25, 1.35]" d)
  end;
  let loss_share = 1.0 -. ratio r0.T.delivered r0.T.offered in
  let layers =
    if not rn.trace then []
    else begin
      let plan, plan_s = Span.timed (fun () -> Lanes.make_plan c ~seed) in
      let passes =
        repeat ~seconds:rn.seconds ~min_reps:1 (fun () ->
            let pass = Span.start rn.spans "lanes.traced_pass" in
            let t, g =
              gc_measure (fun () -> Lanes.run_traced c ~seed ~plan rn.spans ~parent:pass)
            in
            Span.finish pass;
            let mismatches =
              List.filter (fun (_, a, b) -> a <> b) (Lanes.compare t r0)
            in
            check "trace_differential" (mismatches = [])
              (match mismatches with
              | [] -> Printf.sprintf "%d totals equal" (List.length (Lanes.compare t r0))
              | l ->
                  String.concat ", "
                    (List.map (fun (n, a, b) -> Printf.sprintf "%s %d<>%d" n a b) l));
            let cov = median (Array.to_list t.Lanes.coverage) in
            check "trace_coverage"
              (cov >= 0.9 && cov <= 1.0)
              (Printf.sprintf "median generation coverage %.4f within 10%%" cov);
            let s st = float_of_int t.Lanes.stage_ns.(st) in
            let per n x = x /. float_of_int (max 1 n) in
            let sent = t.Lanes.offered - t.Lanes.synthetic_drops in
            [
              ("load.checks_per_pkt", ratio t.Lanes.checks t.Lanes.offered);
              ("load.ns_per_pkt", per t.Lanes.offered (s Lanes.st_scan));
              ("load.plan_s", plan_s);
              ("flow_cache.ns_per_pkt", per t.Lanes.offered (s Lanes.st_cache));
              ( "flow_cache.hit_rate",
                ratio t.Lanes.cache_hits (t.Lanes.cache_hits + t.Lanes.cache_misses) );
              ("flow_cache.evictions_per_pkt", ratio t.Lanes.cache_evictions t.Lanes.offered);
              ("packet.encap_ns_per_pkt", per t.Lanes.offered (s Lanes.st_encap));
              ("packet.decap_ns_per_pkt", per sent (s Lanes.st_decap));
              ("fabric.direct_ns_per_pkt", per sent (s Lanes.st_fabric));
              ("shard.drain_ns_per_pkt", per t.Lanes.delivered (s Lanes.st_drain));
              ( "shard.merge_ns_per_pkt",
                per t.Lanes.delivered (float_of_int t.Lanes.merge_ns) );
              ("shard.ring_mb", float_of_int t.Lanes.ring_bytes /. 1e6);
              ("seq_tracker.ns_per_pkt", per t.Lanes.delivered (s Lanes.st_tracker));
              ("seq_tracker.resident_peak", float_of_int t.Lanes.tracker_resident_peak);
              ("bgp.converge_s", float_of_int t.Lanes.bgp_ns /. 1e9);
              ("dataplane.loss_share", loss_share);
              ( "trace.overhead",
                (float_of_int t.Lanes.lanes_ns /. 1e9 /. r0.T.wall_s) -. 1.0 );
              ("trace.coverage", cov);
            ]
            @ gc_layers g ~pkts:t.Lanes.offered)
      in
      median_layers passes
    end
  in
  {
    args = Lanes.args c;
    jobs =
      List.map
        (fun ((rep : Lanes.rep), factor) ->
          {
            pps = float_of_int rep.Lanes.r.T.delivered /. rep.Lanes.r.T.wall_s;
            setup_s = rep.Lanes.setup_s;
            factor;
          })
        reps;
    quality = [ ("loss_share", loss_share, "share") ];
    layers;
    checks = checks ();
    attempted = List.fold_left (fun n r -> n + r.T.offered) 0 results;
    failed =
      List.fold_left
        (fun n r -> n + (r.T.offered - r.T.synthetic_drops - r.T.delivered))
        0 results;
  }

(* ------------------------------------------------------------------ *)
(* mesh-64.                                                            *)

let mesh_workload (c : Event.mesh_config) rn =
  let module M = Event.Mesh in
  let check, checks = checker () in
  let seed = rn.seed in
  let reps =
    repeat ~seconds:(if rn.trace then 0.0 else rn.seconds) ~min_reps:2 (fun () ->
        let (), setup_s = Span.timed (fun () -> Event.mesh_setup c ~seed) in
        let r, run_s = Span.timed (fun () -> Event.mesh_run c ~seed) in
        (r, run_s, setup_s, Calib.factor ~job_s:run_s))
  in
  let results = List.map (fun (r, _, _, _) -> r) reps in
  let r = List.hd results in
  check "unrecovered" (r.M.unrecovered = 0)
    (Printf.sprintf "%d of %d affected flows" r.M.unrecovered r.M.affected_flows);
  check "affected" (r.M.affected_flows > 0 && r.M.killed >= 0)
    (Printf.sprintf "relay %d killed, %d flows affected" r.M.killed r.M.affected_flows);
  check "discovery_after_fault" (r.M.discovery_after_fault = 0)
    (string_of_int r.M.discovery_after_fault);
  check "max_rotations" (r.M.max_rotations <= r.M.trees)
    (Printf.sprintf "%d <= %d trees" r.M.max_rotations r.M.trees);
  let in_flight = Event.in_flight r in
  check "frame_accounting"
    (in_flight >= 0 && ratio in_flight r.M.sent < 0.01)
    (Printf.sprintf "delivered %d + dropped %d + rejected %d <= sent %d, %d in flight"
       r.M.delivered r.M.dropped r.M.rejected r.M.sent in_flight);
  check "false_quarantines" (r.M.false_quarantines = 0)
    (string_of_int r.M.false_quarantines);
  check "repeat_fingerprint"
    (all_equal (List.map (fun r -> r.M.fingerprint) results))
    (Printf.sprintf "%s over %d runs" (String.sub r.M.fingerprint 0 15)
       (List.length results));
  let finished = r.M.delivered + r.M.dropped + r.M.rejected in
  let loss_share = 1.0 -. ratio r.M.delivered finished in
  let run_s = median (List.map (fun (_, s, _, _) -> s) reps) in
  let layers =
    if not rn.trace then []
    else
      median_layers
        (repeat ~seconds:rn.seconds ~min_reps:1 (fun () ->
             let parent = Span.start rn.spans "mesh.traced_pass" in
             let mtopo, arbor = Event.mesh_builds c ~seed rn.spans ~parent in
             Event.Metric.reset_values ();
             Event.Metric.set_enabled true;
             let (t, run), g =
               gc_measure (fun () ->
                   Span.time rn.spans ~parent "mesh.run" (fun () -> Event.mesh_run c ~seed))
             in
             Event.Metric.set_enabled false;
             Span.finish parent;
             let wall = Span.seconds run in
             let events = Event.counter "sim_events_total" in
             check "trace_differential"
               (String.equal t.M.fingerprint r.M.fingerprint
               && t.M.delivered = r.M.delivered)
               "recording on: same fingerprint and deliveries";
             [
               ("engine.events_per_pkt", ratio events t.M.sent);
               ("engine.ns_per_event", wall *. 1e9 /. float_of_int (max 1 events));
               ("mesh.reroutes_per_frame", ratio t.M.reroutes t.M.sent);
               ( "mesh.control_msgs_per_frame",
                 ratio (t.M.gossip_msgs + t.M.hello_msgs) t.M.sent );
               ("mesh.recovery_ms", t.M.recovery_ms);
               ("attest.excused_share", ratio t.M.excused t.M.delivered);
               ("mtopo.build_s", Span.seconds mtopo);
               ("arbor.build_s", Span.seconds arbor);
               ("dataplane.loss_share", loss_share);
               ("trace.overhead", (wall /. run_s) -. 1.0);
             ]
             @ gc_layers g ~pkts:t.M.sent))
  in
  {
    args = Event.mesh_args c;
    jobs =
      List.map
        (fun (r, run_s, setup_s, factor) ->
          { pps = float_of_int r.M.delivered /. run_s; setup_s; factor })
        reps;
    quality =
      [ ("loss_share", loss_share, "share"); ("recovery_ms", r.M.recovery_ms, "virtual_ms") ];
    layers;
    checks = checks ();
    attempted = List.fold_left (fun n r -> n + r.M.sent - Event.in_flight r) 0 results;
    failed = List.fold_left (fun n r -> n + r.M.rejected) 0 results;
  }

(* ------------------------------------------------------------------ *)
(* pair-vultr.                                                         *)

let pair_workload (c : Event.pair_config) rn =
  let check, checks = checker () in
  let seed = rn.seed in
  let rep () =
    let pair, setup_s = Span.timed (fun () -> Event.pair_setup c ~seed) in
    let o = Event.pair_drive c pair in
    (o, setup_s, Calib.factor ~job_s:o.Event.drive_s)
  in
  let reps = repeat ~seconds:(if rn.trace then 0.0 else rn.seconds) ~min_reps:2 rep in
  let outs = List.map (fun (o, _, _) -> o) reps in
  let o = List.hd outs in
  check "all_received"
    (List.for_all (fun (o : Event.pair_outcome) -> o.Event.received = o.Event.sent) outs)
    (Printf.sprintf "%d of %d app packets" o.Event.received o.Event.sent);
  let gap = Float.abs (o.Event.app_p50_ms -. o.Event.best_owd_ms) /. o.Event.best_owd_ms in
  check "p50_near_best_path" (gap <= 0.10)
    (Printf.sprintf "app p50 %.3f ms vs best-path mean %.3f ms (%.1f%%)" o.Event.app_p50_ms
       o.Event.best_owd_ms (100.0 *. gap));
  check "beats_bgp_default"
    (o.Event.app_p50_ms < o.Event.default_owd_ms)
    (Printf.sprintf "app p50 %.3f ms < default-path mean %.3f ms" o.Event.app_p50_ms
       o.Event.default_owd_ms);
  check "repeat_identical"
    (all_equal
       (List.map
          (fun (o : Event.pair_outcome) ->
            (o.Event.received, o.Event.app_p50_ms, o.Event.app_p99_ms))
          outs))
    (Printf.sprintf "over %d runs" (List.length outs));
  let drive_s = median (List.map (fun (o : Event.pair_outcome) -> o.Event.drive_s) outs) in
  let layers =
    if not rn.trace then []
    else
      median_layers
        (repeat ~seconds:rn.seconds ~min_reps:1 (fun () ->
             let tr = rn.spans in
             let parent = Span.start tr "pair.traced_pass" in
             let pair, _ =
               Span.time tr ~parent "pair.setup_vultr" (fun () -> Event.pair_setup c ~seed)
             in
             let send_ns = ref 0 and sends = ref 0 and slice_ns = ref 0 in
             let slice_send_ns = ref 0 and slice_sends = ref 0 in
             let send f =
               let t0 = Span.now_ns () in
               f ();
               let d = Span.now_ns () - t0 in
               slice_send_ns := !slice_send_ns + d;
               incr slice_sends
             in
             let on_slice f =
               slice_send_ns := 0;
               slice_sends := 0;
               let (), s = Span.time tr ~parent "engine.run_slice" f in
               if !slice_sends > 0 then
                 ignore
                   (Span.add tr ~parent:s ~busy_ns:!slice_send_ns ~calls:!slice_sends
                      "pop.send_app" ~start_ns:s.Span.start_ns ~end_ns:s.Span.end_ns);
               slice_ns := !slice_ns + s.Span.busy_ns;
               send_ns := !send_ns + !slice_send_ns;
               sends := !sends + !slice_sends
             in
             Event.Metric.reset_values ();
             Event.Metric.set_enabled true;
             let t, g =
               gc_measure (fun () -> Event.pair_drive ~slice:0.1 ~on_slice ~send c pair)
             in
             Event.Metric.set_enabled false;
             Span.finish parent;
             check "trace_differential"
               (t.Event.received = o.Event.received
               && t.Event.app_p50_ms = o.Event.app_p50_ms
               && t.Event.app_p99_ms = o.Event.app_p99_ms)
               "sliced, recorded run: same deliveries and latency quantiles";
             let ny = Event.Pair.pop_ny pair in
             let events = Event.counter "sim_events_total" in
             let hits = Event.Pop.path_cache_hits ny
             and misses = Event.Pop.path_cache_misses ny in
             [
               ("pop.send_app_ns", float_of_int !send_ns /. float_of_int (max 1 !sends));
               ("pop.policy_evals_per_app_pkt", ratio (Event.Pop.policy_evaluations ny) !sends);
               ("pop.cache_hit_rate", ratio hits (hits + misses));
               ("pop.app_p50_ms", t.Event.app_p50_ms);
               ("pop.app_p99_ms", t.Event.app_p99_ms);
               ("engine.events_per_pkt", ratio events t.Event.received);
               ( "engine.ns_per_event",
                 float_of_int (!slice_ns - !send_ns) /. float_of_int (max 1 events) );
               ( "fabric.hops_per_pkt",
                 ratio
                   (Event.counter "fabric_packets_forwarded_total")
                   (Event.counter "fabric_packets_sent_total") );
               ("dataplane.loss_share", 1.0 -. ratio t.Event.received t.Event.sent);
               ("trace.overhead", (t.Event.drive_s /. drive_s) -. 1.0);
             ]
             @ gc_layers g ~pkts:t.Event.received))
  in
  {
    args = Event.pair_args c;
    jobs =
      List.map
        (fun ((o : Event.pair_outcome), setup_s, factor) ->
          { pps = float_of_int o.Event.received /. o.Event.drive_s; setup_s; factor })
        reps;
    quality =
      [
        ("loss_share", 1.0 -. ratio o.Event.received o.Event.sent, "share");
        ("app_p50_ms", o.Event.app_p50_ms, "virtual_ms");
        ("app_p99_ms", o.Event.app_p99_ms, "virtual_ms");
      ];
    layers;
    checks = checks ();
    attempted = List.fold_left (fun n (o : Event.pair_outcome) -> n + o.Event.sent) 0 outs;
    failed =
      List.fold_left
        (fun n (o : Event.pair_outcome) -> n + o.Event.sent - o.Event.received)
        0 outs;
  }

(* ------------------------------------------------------------------ *)
(* Workload table.                                                     *)

let run_workload name ~quick rn =
  (* One domain everywhere: on a host with few cores, shared with other
     tenants, a second domain's stalls hold up the join and the timing
     measures the scheduler. The bounded cache is flows/4, so the working
     set is four times the cache, as in E16's two lanes of flows/8. *)
  let lanes ~uniform ~flows ~generations ~cache =
    {
      Lanes.uniform;
      flows;
      generations;
      domains = 1;
      batch = 64;
      cache_capacity = (if cache then Some (max 1024 (flows / 4)) else None);
      tracker_ceiling = (if cache then 65_536 else 0);
    }
  in
  match name with
  | "blast-512" ->
      lanes_workload
        (lanes ~uniform:true ~flows:512 ~generations:(if quick then 200 else 1000) ~cache:false)
        rn
  | "heavytail-10k" ->
      lanes_workload
        (lanes ~uniform:false ~flows:10_000
           ~generations:(if quick then 64 else 256)
           ~cache:true)
        rn
  | "mesh-64" ->
      let pops = if quick then 16 else 64 in
      mesh_workload
        {
          Event.pops;
          degree = 4;
          trees = 3;
          flows = min (2 * pops) 128;
          duration_s = 12.0;
          pkt_interval_s = 0.002;
        }
        rn
  | "pair-vultr" ->
      pair_workload
        {
          Event.horizon_s = (if quick then 10.0 else 20.0);
          app_hz = 2000.0;
          probe_interval_s = 0.01;
        }
        rn
  | _ -> invalid_arg name

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_object fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let metrics_json l =
  json_object
    (List.map
       (fun (name, v, u) ->
         (name, json_object [ ("value", json_float v); ("unit", Printf.sprintf "%S" u) ]))
       l)

let result_line ~correct ~attempted ~failed metrics =
  json_object
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", metrics_json metrics);
    ]

let provenance ~workload ~args ~seed ~seconds ~trace ~quick =
  json_object
    [
      ("workload", Printf.sprintf "%S" workload);
      ("seed", string_of_int seed);
      ("args", json_object (List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) args));
      ("seconds", json_float seconds);
      ("trace", string_of_bool trace);
      ("quick", string_of_bool quick);
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("nproc", string_of_int (nproc ()));
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let print_layer_table workload layers =
  Printf.printf "per-layer %s (traced pass):\n" workload;
  Printf.printf "  %-22s %-30s %14s %-11s %s\n" "layer" "metric" "value" "unit" "moves";
  List.iter
    (fun (name, unit_, layer, moves) ->
      Printf.printf "  %-22s %-30s %14.6g %-11s %s\n" layer name (List.assoc name layers)
        unit_ moves)
    per_layer

let single ~workload ~seed ~seconds ~trace_file ~append ~quick =
  let trace = Option.is_some trace_file in
  let rn = { seed; seconds; trace; spans = Span.create () } in
  let o = run_workload workload ~quick rn in
  let rss = peak_rss_mb () in
  print_endline
    ("provenance "
    ^ provenance ~workload ~args:o.args ~seed ~seconds ~trace ~quick);
  (* Per job: the scaled end-to-end samples, then the unscaled ones. *)
  let samples =
    [
      ("delivered_pps", "1/s", fun j -> j.pps *. j.factor);
      ("setup_s", "s", fun j -> j.setup_s /. j.factor);
      ("raw_delivered_pps", "1/s", fun j -> j.pps);
      ("raw_setup_s", "s", fun j -> j.setup_s);
      ("host_factor", "share", fun j -> j.factor);
    ]
  in
  List.iter
    (fun (name, _, f) ->
      Printf.printf "samples %s.%s n=%d %s\n" workload name (List.length o.jobs)
        (String.concat " " (List.map (fun j -> Printf.sprintf "%.6g" (f j)) o.jobs)))
    samples;
  let e2e =
    List.map (fun (name, unit_, f) -> (name, median (List.map f o.jobs), unit_)) samples
    @ [ ("peak_rss_mb", rss, "MB") ]
  in
  let finite =
    List.for_all (fun (_, v, _) -> Float.is_finite v) (e2e @ o.quality)
    && List.for_all (fun (_, v) -> Float.is_finite v) o.layers
  in
  let checks = o.checks @ [ ("metrics_finite", finite, "every reported value is a number") ] in
  let metrics =
    if trace then
      List.map
        (fun (name, unit_, _, _) ->
          (name, Option.value (List.assoc_opt name o.layers) ~default:0.0, unit_))
        per_layer
    else
      List.map
        (fun (name, _) -> List.find (fun (n, _, _) -> String.equal n name) e2e)
        end_to_end
  in
  List.iter
    (fun (name, v, unit_) -> Printf.printf "metric %s.%s %.6g %s\n" workload name v unit_)
    (if trace then metrics else e2e @ o.quality);
  if trace then print_layer_table workload (List.map (fun (n, v, _) -> (n, v)) metrics);
  List.iter
    (fun (name, ok, detail) ->
      let line =
        Printf.sprintf "check %s.%s %s (%s)" workload name (if ok then "PASS" else "FAIL") detail
      in
      print_endline line;
      if not ok then prerr_endline line)
    checks;
  (match trace_file with
  | None -> ()
  | Some path ->
      mkdir_p (Filename.dirname path);
      let mode = if append then Open_append else Open_trunc in
      let oc = open_out_gen [ mode; Open_creat; Open_wronly ] 0o644 path in
      Span.write rn.spans oc ~workload;
      close_out oc;
      Printf.printf "spans %s\n" path);
  let correct = List.for_all (fun (_, ok, _) -> ok) checks in
  print_endline
    (result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics);
  if not correct then exit 1

(* [--workload all]: each workload in its own child process. *)
let find_int line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length pat in
  let rec at i =
    if i + n > String.length line then 0
    else if String.sub line i n = pat then begin
      let j = ref (i + n) in
      while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      int_of_string (String.sub line (i + n) (!j - i - n))
    end
    else at (i + 1)
  in
  at 0

let all ~argv_rest ~trace_file =
  (match trace_file with Some path when Sys.file_exists path -> Sys.remove path | _ -> ());
  let correct = ref true and attempted = ref 0 and failed = ref 0 in
  let metrics = ref [] in
  List.iter
    (fun w ->
      let args =
        Array.of_list ((Sys.executable_name :: argv_rest) @ [ "--workload"; w; "--child" ])
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let last = ref "" in
      (try
         while true do
           let line = input_line ic in
           if !last <> "" then print_endline !last;
           last := line;
           match String.split_on_char ' ' line with
           | [ "metric"; name; v; u ] -> metrics := (name, float_of_string v, u) :: !metrics
           | _ -> ()
         done
       with End_of_file -> ());
      flush stdout;
      let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
      if not (ok && String.length !last > 0 && find_int !last "attempted" > 0) then begin
        Printf.printf "check %s.exit FAIL\n" w;
        correct := false
      end;
      attempted := !attempted + find_int !last "attempted";
      failed := !failed + find_int !last "failed")
    workloads;
  print_endline
    (result_line ~correct:!correct ~attempted:!attempted ~failed:!failed (List.rev !metrics));
  if not !correct then exit 1

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 25.0 in
  let trace = ref "0" and quick = ref false and child = ref false in
  let rest = ref [] in
  let keep flag v = rest := !rest @ [ flag; v ] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME|all  workload to run");
      ( "--seed",
        Arg.Int
          (fun n ->
            seed := n;
            keep "--seed" (string_of_int n)),
        "N  input seed (default 42)" );
      ( "--seconds",
        Arg.Float
          (fun s ->
            seconds := s;
            keep "--seconds" (Printf.sprintf "%g" s)),
        "S  wall time to repeat each job for (default 25)" );
      ( "--trace",
        Arg.String
          (fun s ->
            trace := s;
            keep "--trace" s),
        "0|1|FILE  traced pass; 1 writes spans to bench/e2e/out/spans-<workload>.jsonl" );
      ( "--quick",
        Arg.Unit
          (fun () ->
            quick := true;
            rest := !rest @ [ "--quick" ]),
        " tiny sizes (smoke test)" );
      ("--child", Arg.Set child, " (internal) run as a child of --workload all");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tango_bench --workload NAME|all [options]";
  let trace_file w =
    match !trace with
    | "0" -> None
    | "1" -> Some (Printf.sprintf "bench/e2e/out/spans-%s.jsonl" w)
    | path -> Some path
  in
  match !workload with
  | "all" -> all ~argv_rest:!rest ~trace_file:(trace_file "all")
  | w when List.mem w workloads ->
      single ~workload:w ~seed:!seed ~seconds:!seconds ~trace_file:(trace_file w)
        ~append:(!child && !trace <> "1") ~quick:!quick
  | w ->
      Printf.eprintf "tango_bench: unknown workload %S (known: all, %s)\n" w
        (String.concat ", " workloads);
      exit 2
