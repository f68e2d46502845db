(* Tests for the telemetry layer: series, rolling windows, EWMA, the
   paper's jitter metric, event detection, and CSV export. *)

open Tango_telemetry

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Series                                                              *)

let test_series_basics () =
  let s = Series.create () in
  Series.add s ~time:0.0 1.0;
  Series.add s ~time:1.0 2.0;
  Series.add s ~time:2.0 3.0;
  Alcotest.(check int) "length" 3 (Series.length s);
  check_float "time_at" 1.0 (Series.time_at s 1);
  check_float "value_at" 2.0 (Series.value_at s 1);
  Alcotest.(check (option (float 1e-9))) "last" (Some 3.0) (Series.last_value s);
  Alcotest.(check (option (float 1e-9))) "first time" (Some 0.0) (Series.first_time s)

let test_series_monotonic_times () =
  let s = Series.create () in
  Series.add s ~time:5.0 1.0;
  Alcotest.(check bool) "backwards rejected" true
    (try Series.add s ~time:4.0 1.0; false with Invalid_argument _ -> true);
  (* Equal times are fine (bursts). *)
  Series.add s ~time:5.0 2.0;
  Alcotest.(check int) "burst accepted" 2 (Series.length s)

let test_series_growth () =
  let s = Series.create ~capacity:2 () in
  for i = 0 to 999 do
    Series.add s ~time:(float_of_int i) (float_of_int (i * 2))
  done;
  Alcotest.(check int) "all kept" 1000 (Series.length s);
  check_float "spot check" 1234.0 (Series.value_at s 617)

let test_series_between () =
  let s = Series.create () in
  for i = 0 to 9 do
    Series.add s ~time:(float_of_int i) (float_of_int i)
  done;
  let slice = Series.between s ~t0:3.0 ~t1:7.0 in
  Alcotest.(check int) "four samples" 4 (Series.length slice);
  check_float "starts at 3" 3.0 (Series.time_at slice 0);
  check_float "ends before 7" 6.0 (Series.time_at slice 3)

let test_series_downsample () =
  let s = Series.create () in
  for i = 0 to 9 do
    (* Two samples per second: values i. *)
    Series.add s ~time:(float_of_int i *. 0.5) (float_of_int i)
  done;
  let d = Series.downsample s ~bucket_s:1.0 in
  Alcotest.(check int) "five buckets" 5 (Series.length d);
  check_float "bucket mean" 0.5 (Series.value_at d 0);
  check_float "second bucket" 2.5 (Series.value_at d 1)

let test_series_stats () =
  let s = Series.create () in
  List.iter (fun v -> Series.add s ~time:0.0 v) [ 2.0; 4.0; 6.0 ];
  let summary = Series.stats s in
  check_float "mean" 4.0 summary.Tango_sim.Stats.mean;
  Alcotest.(check int) "n" 3 summary.Tango_sim.Stats.n

(* ------------------------------------------------------------------ *)
(* Rolling                                                             *)

let test_rolling_eviction () =
  let r = Rolling.create ~window_s:1.0 in
  Rolling.add r ~time:0.0 10.0;
  Rolling.add r ~time:0.5 20.0;
  check_float "both in window" 15.0 (Rolling.mean r);
  Rolling.add r ~time:1.2 30.0;
  (* The 0.0 sample (older than 0.2) is gone. *)
  Alcotest.(check int) "count" 2 (Rolling.count r);
  check_float "mean of last two" 25.0 (Rolling.mean r)

let test_rolling_stddev () =
  let r = Rolling.create ~window_s:10.0 in
  List.iteri (fun i v -> Rolling.add r ~time:(float_of_int i *. 0.1) v)
    [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  (* Classic population stddev example: 2. *)
  check_float "population stddev" 2.0 (Rolling.stddev r)

let test_rolling_constant_signal () =
  let r = Rolling.create ~window_s:1.0 in
  for i = 0 to 100 do
    Rolling.add r ~time:(float_of_int i *. 0.01) 28.0
  done;
  check_float "no jitter" 0.0 (Rolling.stddev r);
  check_float "mean" 28.0 (Rolling.mean r)

let test_rolling_min () =
  let r = Rolling.create ~window_s:1.0 in
  Rolling.add r ~time:0.0 5.0;
  Rolling.add r ~time:0.1 3.0;
  Rolling.add r ~time:0.2 4.0;
  check_float "min" 3.0 (Rolling.min_value r)

(* Differential oracle: the Queue-of-pairs implementation Rolling
   replaced. Kept verbatim (including the strict [time < cutoff]
   eviction) so the flat-ring version is checked against the exact old
   semantics, boundary cases included. *)
module Rolling_reference = struct
  type t = {
    window_s : float;
    samples : (float * float) Queue.t;
    mutable sum : float;
    mutable sum_sq : float;
  }

  let create ~window_s = { window_s; samples = Queue.create (); sum = 0.0; sum_sq = 0.0 }

  let evict t ~now =
    let cutoff = now -. t.window_s in
    let rec drop () =
      match Queue.peek_opt t.samples with
      | Some (time, v) when time < cutoff ->
          ignore (Queue.pop t.samples);
          t.sum <- t.sum -. v;
          t.sum_sq <- t.sum_sq -. (v *. v);
          drop ()
      | _ -> ()
    in
    drop ()

  let add t ~time value =
    Queue.push (time, value) t.samples;
    t.sum <- t.sum +. value;
    t.sum_sq <- t.sum_sq +. (value *. value);
    evict t ~now:time

  let count t = Queue.length t.samples

  let mean t =
    let n = count t in
    if n = 0 then nan else t.sum /. float_of_int n

  let stddev t =
    let n = count t in
    if n < 2 then 0.0
    else begin
      let nf = float_of_int n in
      let variance = (t.sum_sq /. nf) -. ((t.sum /. nf) ** 2.0) in
      sqrt (Float.max 0.0 variance)
    end

  let min_value t =
    Queue.fold (fun acc (_, v) -> Float.min acc v) infinity t.samples

  let max_value t =
    Queue.fold (fun acc (_, v) -> Float.max acc v) neg_infinity t.samples
end

let check_rolling_agrees msg r ref_r =
  Alcotest.(check int)
    (msg ^ ": count") (Rolling_reference.count ref_r) (Rolling.count r);
  let close what a b =
    if not (Float.abs (a -. b) <= 1e-9 || (Float.is_nan a && Float.is_nan b))
    then
      Alcotest.failf "%s: %s diverged (ref %.17g vs ring %.17g)" msg what a b
  in
  close "mean" (Rolling_reference.mean ref_r) (Rolling.mean r);
  close "stddev" (Rolling_reference.stddev ref_r) (Rolling.stddev r);
  close "min" (Rolling_reference.min_value ref_r) (Rolling.min_value r);
  close "max" (Rolling_reference.max_value ref_r) (Rolling.max_value r)

let test_rolling_matches_reference () =
  let r = Rolling.create ~window_s:1.0 in
  let ref_r = Rolling_reference.create ~window_s:1.0 in
  (* Deterministic but irregular stream: bursts, gaps longer than the
     window, repeated values (wedge ties), growth past the initial ring
     capacity. *)
  let rng = ref 0x2545F4914F6CDD1D in
  let next_bits () =
    (* xorshift, masked to stay in positive int range *)
    let x = !rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    rng := x;
    x land 0xFFFFF
  in
  let time = ref 0.0 in
  for step = 1 to 2000 do
    let bits = next_bits () in
    let dt =
      match bits land 0x3F with
      | 0 -> 1.5 (* gap past the window: full flush *)
      | 1 -> 0.0 (* same-timestamp burst *)
      | b -> float_of_int b *. 0.004
    in
    time := !time +. dt;
    let value = 20.0 +. float_of_int ((bits lsr 6) land 0x1F) in
    Rolling.add r ~time:!time value;
    Rolling_reference.add ref_r ~time:!time value;
    if step mod 7 = 0 then
      check_rolling_agrees (Printf.sprintf "step %d" step) r ref_r
  done;
  check_rolling_agrees "final" r ref_r

let test_rolling_cutoff_boundary () =
  (* Eviction is strict: a sample at exactly [now - window_s] survives. *)
  let r = Rolling.create ~window_s:1.0 in
  let ref_r = Rolling_reference.create ~window_s:1.0 in
  List.iter
    (fun (t, v) ->
      Rolling.add r ~time:t v;
      Rolling_reference.add ref_r ~time:t v)
    [ (0.0, 10.0); (0.25, 40.0); (1.0, 30.0) ];
  Alcotest.(check int) "sample at time = cutoff survives" 3 (Rolling.count r);
  check_rolling_agrees "boundary" r ref_r;
  Rolling.add r ~time:1.2500000001 20.0;
  Rolling_reference.add ref_r ~time:1.2500000001 20.0;
  (* cutoff is now just past 0.25: both the 0.0 and 0.25 samples go. *)
  Alcotest.(check int) "just past cutoff evicts" 2 (Rolling.count r);
  check_rolling_agrees "past boundary" r ref_r

let test_rolling_extrema_track_eviction () =
  let r = Rolling.create ~window_s:1.0 in
  Rolling.add r ~time:0.0 50.0;
  Rolling.add r ~time:0.1 1.0;
  Rolling.add r ~time:0.2 30.0;
  check_float "min sees the dip" 1.0 (Rolling.min_value r);
  check_float "max sees the spike" 50.0 (Rolling.max_value r);
  (* Evict the spike only (cutoff 0.05): the dip at 0.1 is still in. *)
  Rolling.add r ~time:1.05 25.0;
  check_float "max after spike evicted" 30.0 (Rolling.max_value r);
  check_float "min still the dip" 1.0 (Rolling.min_value r);
  (* Now evict the dip too (cutoff 0.15). *)
  Rolling.add r ~time:1.15 26.0;
  check_float "min after dip evicted" 25.0 (Rolling.min_value r);
  check_float "max unchanged" 30.0 (Rolling.max_value r)

(* Minor words per call of [f i] over [ops] calls, after [ops] warm-up
   calls that let the rings reach their steady-state size. The sample
   time [0.01 *. i] is boxed when passed: 2 words of every op. *)
let minor_words_per_op ~ops f =
  for i = 0 to ops - 1 do
    f i
  done;
  let before = Gc.minor_words () in
  for i = ops to (2 * ops) - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int ops

let check_words_per_op what ~bound words =
  (* A 16-word slack over 10^5 ops covers the two Gc.minor_words readings. *)
  if words > bound +. (16.0 /. 100_000.0) then
    Alcotest.failf "%.3f minor words per %s, want <= %g" words what bound

let test_rolling_alloc () =
  let r = Rolling.create ~window_s:1.0 in
  check_words_per_op "Rolling.add" ~bound:2.0
    (minor_words_per_op ~ops:100_000 (fun i ->
         Rolling.add r ~time:(0.01 *. float_of_int i) 28.0))

(* ------------------------------------------------------------------ *)
(* Ewma                                                                *)

let test_ewma_first_sample () =
  let e = Ewma.create ~alpha:0.2 in
  Alcotest.(check bool) "nan before" true (Float.is_nan (Ewma.value e));
  Ewma.add e 10.0;
  check_float "first sets" 10.0 (Ewma.value e)

let test_ewma_smoothing () =
  let e = Ewma.create ~alpha:0.5 in
  Ewma.add e 10.0;
  Ewma.add e 20.0;
  check_float "halfway" 15.0 (Ewma.value e);
  Ewma.add e 20.0;
  check_float "converging" 17.5 (Ewma.value e)

let ewma_qcheck_bounds =
  QCheck.Test.make ~name:"ewma stays within sample bounds" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range 0.0 100.0))
    (fun l ->
      let e = Ewma.create ~alpha:0.3 in
      List.iter (Ewma.add e) l;
      let lo = List.fold_left Float.min infinity l in
      let hi = List.fold_left Float.max neg_infinity l in
      Ewma.value e >= lo -. 1e-9 && Ewma.value e <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Jitter                                                              *)

let test_jitter_quiet_vs_noisy () =
  (* The paper's comparison: a path with stddev 0.01 vs one with 0.33. *)
  let rng = Tango_sim.Rng.create ~seed:5 in
  let measure std =
    let j = Jitter.create () in
    for i = 0 to 5_000 do
      let t = float_of_int i *. 0.01 in
      Jitter.add j ~time:t (28.0 +. Tango_sim.Rng.gaussian rng ~mean:0.0 ~std)
    done;
    Jitter.value j
  in
  let quiet = measure 0.01 and noisy = measure 0.33 in
  Alcotest.(check bool) "quiet near 0.01" true (quiet > 0.005 && quiet < 0.02);
  Alcotest.(check bool) "noisy near 0.33" true (noisy > 0.25 && noisy < 0.42);
  Alcotest.(check bool) "ordering" true (noisy > (10.0 *. quiet))

let test_jitter_offset_invariant () =
  (* A constant clock offset must not change the jitter metric. *)
  let measure offset =
    let rng = Tango_sim.Rng.create ~seed:9 in
    let j = Jitter.create () in
    for i = 0 to 2_000 do
      let t = float_of_int i *. 0.01 in
      Jitter.add j ~time:t (offset +. Tango_sim.Rng.gaussian rng ~mean:28.0 ~std:0.2)
    done;
    Jitter.value j
  in
  Alcotest.(check (float 1e-9)) "identical" (measure 0.0) (measure (-49.0))

let test_jitter_alloc () =
  (* The boxed sample time and the window stddev Rolling returns. *)
  let j = Jitter.create () in
  check_words_per_op "Jitter.add" ~bound:4.0
    (minor_words_per_op ~ops:100_000 (fun i ->
         Jitter.add j ~time:(0.01 *. float_of_int i) 28.0))

(* ------------------------------------------------------------------ *)
(* Detect                                                              *)

let feed_detector d samples =
  List.iter (fun (t, v) -> Detect.add d ~time:t v) samples;
  Detect.events d

let flat_then t0 n dt v = List.init n (fun i -> (t0 +. (float_of_int i *. dt), v))

let test_detect_level_shift () =
  let d = Detect.create () in
  let samples = flat_then 0.0 200 0.1 28.0 @ flat_then 20.0 200 0.1 33.0 in
  let events = feed_detector d samples in
  let shifts =
    List.filter (function Detect.Level_shift _ -> true | _ -> false) events
  in
  Alcotest.(check bool) "shift detected" true (shifts <> []);
  match shifts with
  | Detect.Level_shift { before_ms; after_ms; _ } :: _ ->
      Alcotest.(check bool) "direction" true (after_ms > before_ms +. 2.0)
  | _ -> ()

let test_detect_spike () =
  let d = Detect.create () in
  let samples =
    flat_then 0.0 100 0.1 28.0 @ [ (10.05, 78.0) ] @ flat_then 10.1 50 0.1 28.0
  in
  let events = feed_detector d samples in
  let spikes = List.filter (function Detect.Spike _ -> true | _ -> false) events in
  Alcotest.(check int) "one spike" 1 (List.length spikes);
  match spikes with
  | [ Detect.Spike { value_ms; baseline_ms; _ } ] ->
      check_float "spike value" 78.0 value_ms;
      Alcotest.(check bool) "baseline near floor" true (abs_float (baseline_ms -. 28.0) < 1.0)
  | _ -> ()

let test_detect_quiet_stream_silent () =
  let d = Detect.create () in
  let events = feed_detector d (flat_then 0.0 500 0.1 28.0) in
  Alcotest.(check int) "no events" 0 (List.length events)

let test_detect_cooldown () =
  let d = Detect.create () in
  let base = flat_then 0.0 100 0.1 28.0 in
  (* Two spikes 0.5 s apart: the second is inside the 5 s cooldown. *)
  let samples = base @ [ (10.0, 70.0); (10.5, 70.0) ] in
  let events = feed_detector d samples in
  let spikes = List.filter (function Detect.Spike _ -> true | _ -> false) events in
  Alcotest.(check int) "suppressed duplicate" 1 (List.length spikes)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let test_export_series () =
  let s = Series.create () in
  Series.add s ~time:0.0 1.5;
  Series.add s ~time:1.0 2.5;
  let path = Filename.temp_file "tango" ".csv" in
  Export.aligned_to_file path ~labels:[ "owd" ] [ s ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  match List.rev !lines with
  | [ header; row1; row2 ] ->
      Alcotest.(check string) "header" "time,owd" header;
      Alcotest.(check bool) "row1" true (String.length row1 > 0 && row1.[0] = '0');
      Alcotest.(check bool) "row2" true (String.length row2 > 0 && row2.[0] = '1')
  | l -> Alcotest.failf "unexpected CSV shape (%d lines)" (List.length l)

let test_export_aligned () =
  let a = Series.create () and b = Series.create () in
  Series.add a ~time:0.0 1.0;
  Series.add a ~time:1.0 2.0;
  Series.add b ~time:0.5 10.0;
  let path = Filename.temp_file "tango" ".csv" in
  Export.aligned_to_file path ~labels:[ "a"; "b" ] [ a; b ];
  let ic = open_in path in
  let header = input_line ic in
  let row1 = input_line ic in
  let row2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "time,a,b" header;
  (* At t=0, b has no sample yet: empty trailing cell. *)
  Alcotest.(check bool) "empty cell" true (row1.[String.length row1 - 1] = ',');
  (* At t=1, b's 0.5 sample carries forward. *)
  Alcotest.(check bool) "b carried forward" true
    (String.length row2 > 0 && row2.[String.length row2 - 1] <> ',')

(* ------------------------------------------------------------------ *)
(* Ascii_plot                                                          *)

let ramp_series () =
  let s = Series.create () in
  for i = 0 to 99 do
    Series.add s ~time:(float_of_int i) (float_of_int i)
  done;
  s

let test_plot_renders () =
  let plot =
    Ascii_plot.render ~title:"ramp"
      [ { Ascii_plot.label = "r"; glyph = '*'; series = ramp_series () } ]
  in
  let lines = String.split_on_char '\n' plot in
  Alcotest.(check bool) "title present" true (List.hd lines = "ramp");
  (* 1 title + 16 canvas + axis + time labels + legend + trailing *)
  Alcotest.(check int) "line count" 21 (List.length lines);
  Alcotest.(check bool) "contains glyph" true (String.contains plot '*');
  Alcotest.(check bool) "legend" true
    (List.exists (fun l -> String.length l > 2 && String.trim l = "*=r")
       lines)

let test_plot_monotone_ramp_shape () =
  (* A rising ramp must paint strictly non-increasing row indices. *)
  let plot =
    Ascii_plot.render [ { Ascii_plot.label = "r"; glyph = '*'; series = ramp_series () } ]
  in
  let lines = String.split_on_char '\n' plot in
  let canvas = List.filteri (fun i _ -> i < 16) lines in
  let first_col_of_row line =
    let found = ref None in
    String.iteri (fun i c -> if c = '*' && !found = None then found := Some i) line;
    !found
  in
  let positions = List.filter_map first_col_of_row canvas in
  (* Top rows (high values) hold the right-most columns: walking down
     the canvas, the first glyph column moves left. *)
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "positions found" true (List.length positions >= 5);
  Alcotest.(check bool) "staircase down-left" true (non_increasing positions)

let test_plot_range_clipping () =
  let plot =
    Ascii_plot.render ~t0:200.0 ~t1:300.0
      [ { Ascii_plot.label = "r"; glyph = '*'; series = ramp_series () } ]
  in
  Alcotest.(check bool) "reports no data" true
    (let needle = "no data" in
     let rec search i =
       i + String.length needle <= String.length plot
       && (String.sub plot i (String.length needle) = needle || search (i + 1))
     in
     search 0)

let test_plot_invalid () =
  Alcotest.(check bool) "no series" true
    (try ignore (Ascii_plot.render []); false with Invalid_argument _ -> true)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_telemetry"
    [
      ( "series",
        [
          tc "basics" `Quick test_series_basics;
          tc "monotonic times" `Quick test_series_monotonic_times;
          tc "growth" `Quick test_series_growth;
          tc "between" `Quick test_series_between;
          tc "downsample" `Quick test_series_downsample;
          tc "stats" `Quick test_series_stats;
        ] );
      ( "rolling",
        [
          tc "eviction" `Quick test_rolling_eviction;
          tc "stddev" `Quick test_rolling_stddev;
          tc "constant signal" `Quick test_rolling_constant_signal;
          tc "min" `Quick test_rolling_min;
          tc "matches queue reference" `Quick test_rolling_matches_reference;
          tc "cutoff boundary is strict" `Quick test_rolling_cutoff_boundary;
          tc "extrema track eviction" `Quick test_rolling_extrema_track_eviction;
          tc "add allocation" `Quick test_rolling_alloc;
        ] );
      ( "ewma",
        [
          tc "first sample" `Quick test_ewma_first_sample;
          tc "smoothing" `Quick test_ewma_smoothing;
          qc ewma_qcheck_bounds;
        ] );
      ( "jitter",
        [
          tc "quiet vs noisy (paper §5)" `Slow test_jitter_quiet_vs_noisy;
          tc "offset invariant" `Quick test_jitter_offset_invariant;
          tc "add allocation" `Quick test_jitter_alloc;
        ] );
      ( "detect",
        [
          tc "level shift" `Quick test_detect_level_shift;
          tc "spike" `Quick test_detect_spike;
          tc "quiet stream" `Quick test_detect_quiet_stream_silent;
          tc "cooldown" `Quick test_detect_cooldown;
        ] );
      ( "export",
        [
          tc "series csv" `Quick test_export_series;
          tc "aligned csv" `Quick test_export_aligned;
        ] );
      ( "ascii_plot",
        [
          tc "renders" `Quick test_plot_renders;
          tc "ramp shape" `Quick test_plot_monotone_ramp_shape;
          tc "range clipping" `Quick test_plot_range_clipping;
          tc "invalid" `Quick test_plot_invalid;
        ] );
    ]
