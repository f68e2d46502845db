(* lib/obs: metric registry, log-bucketed histograms, trace ring,
   manifest and exporters. The registry is process-global, so every test
   uses its own metric names and leaves the recording switch off. *)

module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace
module Manifest = Tango_obs.Manifest
module Export = Tango_obs.Export

let with_recording f =
  Metric.set_enabled true;
  Fun.protect ~finally:(fun () -> Metric.set_enabled false) f

(* ------------------------------------------------------------------ *)
(* Counters, gauges, the switch                                        *)

let test_counter_gating () =
  let c = Metric.counter ~help:"test" "test_gating_total" in
  Alcotest.(check int) "starts at zero" 0 (Metric.counter_value c);
  Metric.incr c;
  Alcotest.(check int) "off: incr is a no-op" 0 (Metric.counter_value c);
  with_recording (fun () ->
      Metric.incr c;
      Metric.add c 4);
  Alcotest.(check int) "on: incr and add land" 5 (Metric.counter_value c);
  Alcotest.(check bool) "switch restored" false (Metric.enabled ())

let test_registration_idempotent () =
  let c1 = Metric.counter ~help:"first" "test_idem_total" in
  let c2 = Metric.counter "test_idem_total" in
  with_recording (fun () -> Metric.incr c1);
  Alcotest.(check int) "same underlying cell" 1 (Metric.counter_value c2);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument
       "Metric.gauge: \"test_idem_total\" is already registered as another kind")
    (fun () -> ignore (Metric.gauge "test_idem_total"));
  Alcotest.check_raises "bad name rejected"
    (Invalid_argument "Metric.counter: invalid character ' ' in name \"bad name\"")
    (fun () -> ignore (Metric.counter "bad name"))

let test_gauge () =
  let g = Metric.gauge ~help:"test" "test_gauge" in
  with_recording (fun () -> Metric.set g 2.5);
  Alcotest.(check (float 0.0)) "last value wins" 2.5 (Metric.gauge_value g);
  Metric.set g 9.0;
  Alcotest.(check (float 0.0)) "off: set is a no-op" 2.5 (Metric.gauge_value g)

(* ------------------------------------------------------------------ *)
(* Histogram bucket math                                               *)

let hist_name = "test_hist_seconds"

let hist = Metric.histogram ~help:"test" hist_name

type histogram_view = {
  upper_bounds : float array;
  counts : int array;
  sum : float;
  count : int;
}

(* A histogram as the registry reports it. *)
let histogram_view name =
  match List.find_opt (fun v -> String.equal v.Metric.name name) (Metric.views ()) with
  | Some { Metric.value = Metric.Histogram_value { upper_bounds; counts; sum; count }; _ } ->
      { upper_bounds; counts; sum; count }
  | Some _ | None -> Alcotest.failf "no histogram %s" name

(* Finite bucket count; the overflow bucket at that index is extra. *)
let bucket_count name = Array.length (histogram_view name).upper_bounds

(* Inclusive upper bound of a bucket; [infinity] for the overflow bucket. *)
let upper_bound name i =
  let bounds = (histogram_view name).upper_bounds in
  if i = Array.length bounds then infinity else bounds.(i)

(* The bucket [observe] counts [v] into: observe it alone and see which
   count moves. *)
let bucket_of name h v =
  Metric.reset_values ();
  with_recording (fun () -> Metric.observe h v);
  let counts = (histogram_view name).counts in
  let rec find i = if counts.(i) > 0 then i else find (i + 1) in
  find 0

(* Round-trip property: the bucket chosen for [v] is the unique one
   whose (exclusive lower, inclusive upper] range contains it. *)
let bucket_round_trip =
  QCheck.Test.make ~count:2000 ~name:"histogram bucket round-trip"
    QCheck.(float_range (-10.0) 30.0)
    (fun exponent ->
      let v = Float.exp exponent in
      let n = bucket_count hist_name in
      let i = bucket_of hist_name hist v in
      if i < 0 || i > n then false
      else begin
        let upper_ok = v <= upper_bound hist_name i in
        let lower_ok = i = 0 || v > upper_bound hist_name (i - 1) in
        upper_ok && lower_ok
      end)

(* Exact power-of-two boundaries are inclusive upper bounds. *)
let test_bucket_boundaries () =
  let n = bucket_count hist_name in
  for i = 0 to n - 1 do
    let bound = upper_bound hist_name i in
    Alcotest.(check int)
      (Printf.sprintf "2^e boundary lands in bucket %d" i)
      i
      (bucket_of hist_name hist bound);
    if i + 1 <= n then
      Alcotest.(check int)
        (Printf.sprintf "just above boundary %d spills over" i)
        (i + 1)
        (bucket_of hist_name hist (bound *. (1.0 +. epsilon_float)))
  done;
  Alcotest.(check int) "non-positive values in bucket 0" 0 (bucket_of hist_name hist 0.0);
  Alcotest.(check int) "negative values in bucket 0" 0 (bucket_of hist_name hist (-3.0))

let test_overflow_bucket () =
  let name = "test_overflow_seconds" in
  let h = Metric.histogram ~help:"test" name in
  let n = bucket_count name in
  Alcotest.(check int) "huge value overflows" n (bucket_of name h 1e30);
  Alcotest.(check int) "inf overflows" n (bucket_of name h infinity);
  Alcotest.(check int) "nan overflows" n (bucket_of name h nan);
  Alcotest.(check int) "overflow upper bound is +inf" (n + 1)
    (Array.length (histogram_view name).counts);
  Metric.reset_values ();
  with_recording (fun () ->
      Metric.observe h 1e30;
      Metric.observe h nan;
      Metric.observe h 0.001);
  let view = histogram_view name in
  Alcotest.(check int) "overflow bucket counted" 2 view.counts.(n);
  Alcotest.(check int) "total includes overflow" 3 view.count;
  Alcotest.(check (float 1e-9)) "nan excluded from sum" (1e30 +. 0.001) view.sum

let test_observe_and_reset () =
  let name = "test_observe_seconds" in
  let h = Metric.histogram ~help:"test" name in
  let values = [ 1e-6; 2e-6; 0.001; 0.25; 3.0 ] in
  let buckets = List.map (bucket_of name h) values in
  Metric.reset_values ();
  with_recording (fun () -> List.iter (Metric.observe h) values);
  let view = histogram_view name in
  Alcotest.(check int) "count" (List.length values) view.count;
  Alcotest.(check (float 1e-12)) "sum" (List.fold_left ( +. ) 0.0 values) view.sum;
  List.iter2
    (fun v i ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket for %g non-empty" v)
        true
        (view.counts.(i) > 0))
    values buckets;
  Metric.reset_values ();
  let view = histogram_view name in
  Alcotest.(check int) "reset zeroes count" 0 view.count;
  Alcotest.(check (float 0.0)) "reset zeroes sum" 0.0 view.sum

(* ------------------------------------------------------------------ *)
(* Trace ring                                                          *)

(* Live records in the ring, counted by visiting them. *)
let live t =
  let n = ref 0 in
  Trace.iter t (fun ~time:_ ~kind:_ ~a:_ ~b:_ -> incr n);
  !n

let test_trace_wraparound () =
  let t = Trace.create ~capacity:4 () in
  let k = Trace.kind "test.wrap" in
  with_recording (fun () ->
      for i = 0 to 6 do
        Trace.record t ~now:(float_of_int i) ~kind:k i (i * 10)
      done);
  Alcotest.(check int) "length capped at capacity" 4 (live t);
  Alcotest.(check int) "three overwritten" 3 (Trace.dropped t);
  Alcotest.(check int) "recorded = length + dropped" 7 (Trace.recorded t);
  let seen = ref [] in
  Trace.iter t (fun ~time ~kind ~a ~b ->
      Alcotest.(check int) "kind preserved" k kind;
      Alcotest.(check int) "payload b = 10a" (a * 10) b;
      seen := time :: !seen);
  Alcotest.(check (list (float 0.0)))
    "oldest-first survivors" [ 3.0; 4.0; 5.0; 6.0 ] (List.rev !seen);
  Trace.clear t;
  Alcotest.(check int) "clear empties" 0 (live t);
  Alcotest.(check int) "clear zeroes dropped" 0 (Trace.dropped t)

let test_trace_gating_and_kinds () =
  let t = Trace.create ~capacity:4 () in
  let k = Trace.kind "test.gate" in
  Trace.record t ~now:1.0 ~kind:k 1 2;
  Alcotest.(check int) "off: record is a no-op" 0 (live t);
  Alcotest.(check int) "kind lookup is idempotent" k (Trace.kind "test.gate");
  Alcotest.(check string) "kind name round-trips" "test.gate" (Trace.kind_name k)

(* ------------------------------------------------------------------ *)
(* Export golden renderings (constructed snapshot: fully deterministic) *)

(* MD5 hex of "golden config". *)
let golden_digest = "d2f2d206aa502fcd775838f5357980f0"

let golden_manifest =
  {
    Manifest.experiment = "golden";
    seed = 42;
    config_digest = golden_digest;
    started_unix_s = 1700000000.0;
    wall_s = 0.5;
    virtual_s = 12.0;
    sim_events = 100;
    trace_recorded = 1;
    trace_dropped = 0;
  }

let golden_snapshot =
  {
    Export.metrics =
      [
        {
          Metric.name = "golden_sent_total";
          help = "Packets sent";
          value = Metric.Counter_value 42;
        };
        {
          Metric.name = "golden_queue_depth";
          help = "Queue depth";
          value = Metric.Gauge_value 1.5;
        };
        {
          Metric.name = "golden_wait_seconds";
          help = "Queue wait";
          value =
            Metric.Histogram_value
              {
                upper_bounds = [| 0.25; 0.5; 1.0 |];
                counts = [| 1; 2; 3; 4 |];
                sum = 5.75;
                count = 10;
              };
        };
      ];
    events = [ { Export.time = 1.5; kind = "fabric.drop"; a = 7; b = 2 } ];
  }

let expected_jsonl =
  String.concat "\n"
    [
      "{\"type\":\"manifest\",\"schema_version\":1,\"tool\":\"tango-obs\",\"experiment\":\"golden\",\"seed\":42,\"config_digest\":\""
      ^ golden_digest
      ^ "\",\"started_unix_s\":1700000000,\"wall_s\":0.5,\"virtual_s\":12,\"sim_events\":100,\"trace_recorded\":1,\"trace_dropped\":0}";
      "{\"type\":\"counter\",\"name\":\"golden_sent_total\",\"help\":\"Packets sent\",\"value\":42}";
      "{\"type\":\"gauge\",\"name\":\"golden_queue_depth\",\"help\":\"Queue depth\",\"value\":1.5}";
      "{\"type\":\"histogram\",\"name\":\"golden_wait_seconds\",\"help\":\"Queue wait\",\"le\":[0.25,0.5,1],\"counts\":[1,2,3,4],\"sum\":5.75,\"count\":10}";
      "{\"type\":\"event\",\"t\":1.5,\"kind\":\"fabric.drop\",\"a\":7,\"b\":2}";
      "";
    ]

let expected_prometheus =
  String.concat "\n"
    [
      "# HELP tango_golden_sent_total Packets sent";
      "# TYPE tango_golden_sent_total counter";
      "tango_golden_sent_total 42";
      "# HELP tango_golden_queue_depth Queue depth";
      "# TYPE tango_golden_queue_depth gauge";
      "tango_golden_queue_depth 1.5";
      "# HELP tango_golden_wait_seconds Queue wait";
      "# TYPE tango_golden_wait_seconds histogram";
      "tango_golden_wait_seconds_bucket{le=\"0.25\"} 1";
      "tango_golden_wait_seconds_bucket{le=\"0.5\"} 3";
      "tango_golden_wait_seconds_bucket{le=\"1\"} 6";
      "tango_golden_wait_seconds_bucket{le=\"+Inf\"} 10";
      "tango_golden_wait_seconds_sum 5.75";
      "tango_golden_wait_seconds_count 10";
      "";
    ]

let test_jsonl_golden () =
  Alcotest.(check string)
    "jsonl rendering" expected_jsonl
    (Export.to_jsonl ~manifest:golden_manifest golden_snapshot)

let test_prometheus_golden () =
  Alcotest.(check string)
    "prometheus rendering" expected_prometheus
    (Export.to_prometheus golden_snapshot)

let test_nonfinite_renders_null () =
  let snap =
    {
      Export.metrics =
        [
          {
            Metric.name = "golden_nan_gauge";
            help = "";
            value = Metric.Gauge_value nan;
          };
        ];
      events = [];
    }
  in
  Alcotest.(check string)
    "nan gauge is null"
    "{\"type\":\"gauge\",\"name\":\"golden_nan_gauge\",\"help\":\"\",\"value\":null}\n"
    (Export.to_jsonl snap);
  Alcotest.(check string)
    "prometheus renders NaN"
    "# TYPE tango_golden_nan_gauge gauge\ntango_golden_nan_gauge NaN\n"
    (Export.to_prometheus snap)

(* End-to-end: record through the live registry, snapshot, render, and
   check the lines we own appear (other suites may have registered their
   own metrics in this process — we only assert on ours). *)
let test_live_snapshot () =
  let c = Metric.counter ~help:"live" "test_live_total" in
  let ring = Trace.create ~capacity:8 () in
  let k = Trace.kind "test.live" in
  Metric.reset_values ();
  with_recording (fun () ->
      Metric.incr c;
      Metric.incr c;
      Trace.record ring ~now:0.25 ~kind:k 1 2);
  let out = Export.to_jsonl (Export.snapshot ~trace:ring ()) in
  let lines = String.split_on_char '\n' out in
  let has l = List.mem l lines in
  Alcotest.(check bool) "counter line present" true
    (has
       "{\"type\":\"counter\",\"name\":\"test_live_total\",\"help\":\"live\",\"value\":2}");
  Alcotest.(check bool) "event line present" true
    (has "{\"type\":\"event\",\"t\":0.25,\"kind\":\"test.live\",\"a\":1,\"b\":2}")

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)

let test_manifest_session () =
  let ring = Trace.create ~capacity:2 () in
  let k = Trace.kind "test.manifest" in
  let session =
    Manifest.start ~experiment:"unit" ~seed:7 ~config:"canonical text" ()
  in
  with_recording (fun () ->
      for i = 0 to 4 do
        Trace.record ring ~now:(float_of_int i) ~kind:k i i
      done);
  let m = Manifest.finish session ~virtual_s:3.5 ~sim_events:9 ring in
  Alcotest.(check string) "experiment" "unit" m.Manifest.experiment;
  Alcotest.(check int) "seed" 7 m.Manifest.seed;
  Alcotest.(check string) "digest matches" "f8300ae5ebf7db27469ec04a821bea21"
    m.Manifest.config_digest;
  Alcotest.(check bool) "wall time non-negative" true (m.Manifest.wall_s >= 0.0);
  Alcotest.(check int) "trace recorded" 5 m.Manifest.trace_recorded;
  Alcotest.(check int) "trace dropped" 3 m.Manifest.trace_dropped

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metric",
        [
          Alcotest.test_case "counter gated by switch" `Quick test_counter_gating;
          Alcotest.test_case "registration idempotent" `Quick
            test_registration_idempotent;
          Alcotest.test_case "gauge" `Quick test_gauge;
        ] );
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest bucket_round_trip;
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "overflow bucket" `Quick test_overflow_bucket;
          Alcotest.test_case "observe and reset" `Quick test_observe_and_reset;
        ] );
      ( "trace",
        [
          Alcotest.test_case "wraparound and drop counter" `Quick
            test_trace_wraparound;
          Alcotest.test_case "gating and kind registry" `Quick
            test_trace_gating_and_kinds;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "non-finite floats" `Quick
            test_nonfinite_renders_null;
          Alcotest.test_case "live snapshot" `Quick test_live_snapshot;
        ] );
      ( "manifest",
        [ Alcotest.test_case "session round-trip" `Quick test_manifest_session ] );
    ]
