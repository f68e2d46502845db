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
  close "stddev" (Rolling_reference.stddev ref_r) (Rolling.stddev r)

let test_rolling_matches_reference () =
  let r = Rolling.create ~window_s:1.0 in
  let ref_r = Rolling_reference.create ~window_s:1.0 in
  (* Deterministic but irregular stream: bursts, gaps longer than the
     window, repeated values, growth past the initial ring capacity. *)
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
(* One ring per path against the windows it replaced                   *)

(* Verbatim copies of Rolling, Jitter and Detect from when each window
   kept its own copy of every sample (Rolling with min/max wedges,
   Detect with a delay line feeding a second Rolling), with [Rolling]
   renamed [Old_rolling]: the oracle the shared-ring windows must match
   bit for bit. *)
module Old_rolling = struct
  (* The extrema are copied too, and read by nothing. *)
  [@@@warning "-32"]

  (* Flat ring buffer of (time, value) samples in two unboxed float
     arrays — the window holds no boxed cells, so the per-sample path
     allocates nothing once the ring has grown to its steady-state size.

     Extrema are tracked by monotonic wedges (the classic sliding-window
     min/max deque): the min wedge keeps a strictly increasing run of
     values whose front is the current minimum, the max wedge a strictly
     decreasing run. Each sample enters and leaves a wedge at most once,
     so add/evict stay O(1) amortized. *)

  (* A growable deque of (time, value) pairs over flat arrays. [head] is
     the index of the oldest element; elements occupy
     [head .. head+len-1] modulo capacity. *)
  type ring = {
    mutable times : float array;
    mutable vals : float array;
    mutable head : int;
    mutable len : int;
  }

  let initial_capacity = 16

  let ring_create () =
    {
      times = Array.make initial_capacity 0.0;
      vals = Array.make initial_capacity 0.0;
      head = 0;
      len = 0;
    }

  let ring_grow r =
    let cap = Array.length r.times in
    let times = Array.make (2 * cap) 0.0 and vals = Array.make (2 * cap) 0.0 in
    let first = cap - r.head in
    (* Unroll the wrap so the live elements start at index 0. *)
    Array.blit r.times r.head times 0 first;
    Array.blit r.times 0 times first (r.len - first);
    Array.blit r.vals r.head vals 0 first;
    Array.blit r.vals 0 vals first (r.len - first);
    r.times <- times;
    r.vals <- vals;
    r.head <- 0

  let[@hot] ring_push_back r ~time v =
    if r.len = Array.length r.times then ring_grow r;
    let i = (r.head + r.len) land (Array.length r.times - 1) in
    r.times.(i) <- time;
    r.vals.(i) <- v;
    r.len <- r.len + 1

  (* The accessors are inlined so their floats never leave the caller's
     registers: a float returned from a function call is boxed. *)
  let[@hot] [@inline] ring_front_time r = r.times.(r.head)

  let[@hot] [@inline] ring_front_value r = r.vals.(r.head)

  let[@hot] [@inline] ring_pop_front r =
    r.head <- (r.head + 1) land (Array.length r.times - 1);
    r.len <- r.len - 1

  let[@hot] [@inline] ring_back_value r =
    r.vals.((r.head + r.len - 1) land (Array.length r.times - 1))

  let[@hot] [@inline] ring_pop_back r = r.len <- r.len - 1

  (* The running aggregates live in a flat float array rather than mutable
     record fields: a mixed record boxes every float store, which would
     put two allocations back on the per-sample path. *)
  let sum_ix = 0

  let sum_sq_ix = 1

  let last_time_ix = 2

  type t = {
    window_s : float;
    samples : ring;
    min_wedge : ring;  (* values strictly increasing; front = window min *)
    max_wedge : ring;  (* values strictly decreasing; front = window max *)
    acc : float array;  (* sum, sum_sq, last_time *)
  }

  let create ~window_s =
    if window_s <= 0.0 then invalid_arg "Rolling.create: non-positive window";
    {
      window_s;
      samples = ring_create ();
      min_wedge = ring_create ();
      max_wedge = ring_create ();
      acc = [| 0.0; 0.0; neg_infinity |];
    }

  let[@hot] evict t ~now =
    let cutoff = now -. t.window_s in
    while t.samples.len > 0 && ring_front_time t.samples < cutoff do
      let v = ring_front_value t.samples in
      ring_pop_front t.samples;
      t.acc.(sum_ix) <- t.acc.(sum_ix) -. v;
      t.acc.(sum_sq_ix) <- t.acc.(sum_sq_ix) -. (v *. v)
    done;
    while t.min_wedge.len > 0 && ring_front_time t.min_wedge < cutoff do
      ring_pop_front t.min_wedge
    done;
    while t.max_wedge.len > 0 && ring_front_time t.max_wedge < cutoff do
      ring_pop_front t.max_wedge
    done

  let[@hot] add t ~time value =
    if time < t.acc.(last_time_ix) then
      invalid_arg "Rolling.add: time went backwards";
    t.acc.(last_time_ix) <- time;
    ring_push_back t.samples ~time value;
    t.acc.(sum_ix) <- t.acc.(sum_ix) +. value;
    t.acc.(sum_sq_ix) <- t.acc.(sum_sq_ix) +. (value *. value);
    (* A new sample dominates every older one that is no more extreme; it
       also outlives them, so those can never be the extremum again. *)
    while t.min_wedge.len > 0 && ring_back_value t.min_wedge >= value do
      ring_pop_back t.min_wedge
    done;
    ring_push_back t.min_wedge ~time value;
    while t.max_wedge.len > 0 && ring_back_value t.max_wedge <= value do
      ring_pop_back t.max_wedge
    done;
    ring_push_back t.max_wedge ~time value;
    evict t ~now:time

  let count t = t.samples.len

  let mean t =
    let n = count t in
    if n = 0 then nan else t.acc.(sum_ix) /. float_of_int n

  let stddev t =
    let n = count t in
    if n < 2 then 0.0
    else begin
      let nf = float_of_int n in
      let variance =
        (t.acc.(sum_sq_ix) /. nf) -. ((t.acc.(sum_ix) /. nf) ** 2.0)
      in
      sqrt (Float.max 0.0 variance)
    end

  let min_value t = if t.min_wedge.len = 0 then infinity else ring_front_value t.min_wedge

  let max_value t =
    if t.max_wedge.len = 0 then neg_infinity else ring_front_value t.max_wedge
end

module Old_jitter = struct
  (* The running sum of window stddevs lives in a one-element float
     array: stored into a mutable field of this mixed record it would be
     boxed on every sample. *)
  type t = {
    rolling : Old_rolling.t;
    recent : Ewma.t;
    sum_stddev : float array;
    mutable n : int;
  }

  (* The paper's 1 s window, and the per-sample weight of {!recent}. *)
  let window_s = 1.0

  let recent_alpha = 0.01

  let create () =
    {
      rolling = Old_rolling.create ~window_s;
      recent = Ewma.create ~alpha:recent_alpha;
      sum_stddev = [| 0.0 |];
      n = 0;
    }

  let add t ~time value =
    Old_rolling.add t.rolling ~time value;
    (* Only meaningful once the window holds at least two samples. *)
    if Old_rolling.count t.rolling >= 2 then begin
      let std = Old_rolling.stddev t.rolling in
      t.sum_stddev.(0) <- t.sum_stddev.(0) +. std;
      Ewma.add t.recent std;
      t.n <- t.n + 1
    end

  let value t = if t.n = 0 then nan else t.sum_stddev.(0) /. float_of_int t.n

  let recent t = Ewma.value t.recent
end

module Old_detect = struct
  type event =
    | Level_shift of { at : float; before_ms : float; after_ms : float }
    | Spike of { at : float; value_ms : float; baseline_ms : float }

  (* Detection runs on the per-reception hot path (one [add] per data
     packet), so the sample delay line and the event history are flat
     parallel arrays grown cold on overflow — no queues, no boxed
     tuples, no option results. Constructed [event] values exist only on
     the cold read side ({!events}). *)

  (* Event history slots: kind tag + three payload floats. *)
  let ev_shift = 0

  let ev_spike = 1

  type t = {
    older : Old_rolling.t;  (* window [t-2w, t-w], approximated by delayed feed *)
    recent : Old_rolling.t;
    (* Delay line: samples waiting to age into [older]; flat ring indexed
       by [buf_head .. buf_head + buf_len - 1] modulo capacity. *)
    mutable buf_times : floatarray;
    mutable buf_values : floatarray;
    mutable buf_head : int;
    mutable buf_len : int;
    mutable last_shift_at : float;
    mutable last_spike_at : float;
    (* Event history, oldest first, flat: kind tag plus (at, a, b) where
       (a, b) is (before, after) for shifts and (value, baseline) for
       spikes. *)
    mutable ev_kinds : int array;
    mutable ev_at : floatarray;
    mutable ev_a : floatarray;
    mutable ev_b : floatarray;
    mutable ev_count : int;
  }

  (* Length of each of the two adjacent comparison windows, which is also
     the spike cooldown; minimum difference of window means to report a
     shift, excursion above the older window's mean to report a spike,
     and the hold-off that keeps one route change from reporting twice. *)
  let window_s = 5.0

  let shift_threshold_ms = 2.0

  let spike_threshold_ms = 10.0

  let shift_cooldown_s = 30.0

  let create () =
    {
      older = Old_rolling.create ~window_s;
      recent = Old_rolling.create ~window_s;
      buf_times = Float.Array.make 64 0.0;
      buf_values = Float.Array.make 64 0.0;
      buf_head = 0;
      buf_len = 0;
      last_shift_at = neg_infinity;
      last_spike_at = neg_infinity;
      ev_kinds = Array.make 16 0;
      ev_at = Float.Array.make 16 0.0;
      ev_a = Float.Array.make 16 0.0;
      ev_b = Float.Array.make 16 0.0;
      ev_count = 0;
    }

  (* Cold: double the delay ring, unwrapping the live span to the front. *)
  let grow_buffer t =
    let cap = Float.Array.length t.buf_times in
    let times = Float.Array.make (2 * cap) 0.0 in
    let values = Float.Array.make (2 * cap) 0.0 in
    for i = 0 to t.buf_len - 1 do
      let src = (t.buf_head + i) mod cap in
      Float.Array.set times i (Float.Array.get t.buf_times src);
      Float.Array.set values i (Float.Array.get t.buf_values src)
    done;
    t.buf_times <- times;
    t.buf_values <- values;
    t.buf_head <- 0

  (* Cold: double the event history arrays. *)
  let grow_events t =
    let cap = Array.length t.ev_kinds in
    let kinds = Array.make (2 * cap) 0 in
    Array.blit t.ev_kinds 0 kinds 0 t.ev_count;
    let at = Float.Array.make (2 * cap) 0.0 in
    Float.Array.blit t.ev_at 0 at 0 t.ev_count;
    let a = Float.Array.make (2 * cap) 0.0 in
    Float.Array.blit t.ev_a 0 a 0 t.ev_count;
    let b = Float.Array.make (2 * cap) 0.0 in
    Float.Array.blit t.ev_b 0 b 0 t.ev_count;
    t.ev_kinds <- kinds;
    t.ev_at <- at;
    t.ev_a <- a;
    t.ev_b <- b

  let push_event t ~kind ~at ~a ~b =
    if t.ev_count >= Array.length t.ev_kinds then grow_events t;
    let i = t.ev_count in
    t.ev_kinds.(i) <- kind;
    Float.Array.set t.ev_at i at;
    Float.Array.set t.ev_a i a;
    Float.Array.set t.ev_b i b;
    t.ev_count <- i + 1

  let[@hot] add t ~time value =
    (* Samples flow into [recent] immediately and into [older] once they
       are a window old, so the two windows cover adjacent spans. *)
    Old_rolling.add t.recent ~time value;
    if t.buf_len >= Float.Array.length t.buf_times then grow_buffer t;
    let cap = Float.Array.length t.buf_times in
    let slot = (t.buf_head + t.buf_len) mod cap in
    Float.Array.set t.buf_times slot time;
    Float.Array.set t.buf_values slot value;
    t.buf_len <- t.buf_len + 1;
    let horizon = time -. window_s in
    let continue = ref true in
    while !continue && t.buf_len > 0 do
      let ts = Float.Array.get t.buf_times t.buf_head in
      if ts <= horizon then begin
        Old_rolling.add t.older ~time:ts (Float.Array.get t.buf_values t.buf_head);
        t.buf_head <- (t.buf_head + 1) mod cap;
        t.buf_len <- t.buf_len - 1
      end
      else continue := false
    done;
    let baseline = Old_rolling.mean t.older in
    if Old_rolling.count t.older >= 10 && not (Float.is_nan baseline) then
      if
        value -. baseline > spike_threshold_ms
        && time -. t.last_spike_at > window_s
      then begin
        t.last_spike_at <- time;
        push_event t ~kind:ev_spike ~at:time ~a:value ~b:baseline
      end
      else begin
        let recent_mean = Old_rolling.mean t.recent in
        if
          Old_rolling.count t.recent >= 10
          && (not (Float.is_nan recent_mean))
          && abs_float (recent_mean -. baseline) > shift_threshold_ms
          && time -. t.last_shift_at > shift_cooldown_s
        then begin
          t.last_shift_at <- time;
          push_event t ~kind:ev_shift ~at:time ~a:baseline ~b:recent_mean
        end
      end

  let events t =
    let out = ref [] in
    for i = t.ev_count - 1 downto 0 do
      let at = Float.Array.get t.ev_at i in
      let a = Float.Array.get t.ev_a i in
      let b = Float.Array.get t.ev_b i in
      let e =
        if t.ev_kinds.(i) = ev_spike then
          Spike { at; value_ms = a; baseline_ms = b }
        else Level_shift { at; before_ms = a; after_ms = b }
      in
      out := e :: !out
    done;
    !out
end

(* One stream step: the gap since the last sample, a kind draw and a
   noise draw. Gaps are counted in 1/1024 s ticks, so a time minus 1 s
   or 5 s is exact and lands on earlier samples as often as chance
   allows: equal timestamps, ~10 ms probes, up to 125 ms, exactly 1 s
   and 5 s, anything up to 5 s, and gaps past 10 s that empty every
   window. A stream either stays on that grid or adds 0.01 s per probe
   step in float. Values: 28 ms plus a level that a 5 ms step toggles,
   0.3 ms of noise and, now and then, a 50 ms spike. *)
let stream_gen =
  QCheck.Gen.(
    let gap =
      frequency
        [
          (5, return 0);
          (80, return 10);
          (10, int_range 1 128);
          (2, return 1024);
          (2, return 5120);
          (1, int_range 1 5120);
          (1, int_range 10241 20480);
        ]
    in
    pair bool (list_size (int_range 1 3000) (triple gap (int_bound 99) (float_range (-1.0) 1.0))))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let event_fields = function
  | Detect.Level_shift { at; before_ms; after_ms } -> (0, at, before_ms, after_ms)
  | Detect.Spike { at; value_ms; baseline_ms } -> (1, at, value_ms, baseline_ms)

let old_event_fields = function
  | Old_detect.Level_shift { at; before_ms; after_ms } -> (0, at, before_ms, after_ms)
  | Old_detect.Spike { at; value_ms; baseline_ms } -> (1, at, value_ms, baseline_ms)

let shared_ring_matches_old_windows =
  QCheck.Test.make ~name:"one ring per path = per-window copies, bit for bit" ~count:200
    (QCheck.make stream_gen) (fun (on_grid, steps) ->
      let ring = Rolling.ring () in
      let jitter = Jitter.of_ring ring and detect = Detect.of_ring ring in
      let old_jitter = Old_jitter.create () and old_detect = Old_detect.create () in
      let ticks = ref 0 and float_time = ref 0.0 and level = ref 0.0 in
      List.iteri
        (fun i (gap, kind, noise) ->
          let time =
            if on_grid || gap <> 10 then begin
              ticks := !ticks + gap;
              float_time := !float_time +. (float_of_int gap /. 1024.0);
              if on_grid then float_of_int !ticks /. 1024.0 else !float_time
            end
            else begin
              float_time := !float_time +. 0.01;
              !float_time
            end
          in
          if kind < 3 then level := 5.0 -. !level;
          let value = 28.0 +. !level +. (0.3 *. noise) +. if kind >= 97 then 50.0 else 0.0 in
          Rolling.push ring ~time value;
          Jitter.update jitter;
          Detect.update detect ~time value;
          Old_jitter.add old_jitter ~time value;
          Old_detect.add old_detect ~time value;
          let same what a b =
            if not (bits_equal a b) then
              QCheck.Test.fail_reportf "sample %d (t=%h): %s %h, was %h" i time what a b
          in
          same "Jitter.value" (Jitter.value jitter) (Old_jitter.value old_jitter);
          same "Jitter.recent" (Jitter.recent jitter) (Old_jitter.recent old_jitter);
          let recent, older, waiting = Detect.window_counts detect in
          let counts =
            [
              (Jitter.count jitter, Old_rolling.count old_jitter.Old_jitter.rolling);
              (recent, Old_rolling.count old_detect.Old_detect.recent);
              (older, Old_rolling.count old_detect.Old_detect.older);
              (waiting, old_detect.Old_detect.buf_len);
            ]
          in
          if not (List.for_all (fun (a, b) -> a = b) counts) then
            QCheck.Test.fail_reportf "sample %d (t=%h): window counts differ" i time)
        steps;
      let events = List.map event_fields (Detect.events detect)
      and old_events = List.map old_event_fields (Old_detect.events old_detect) in
      List.length events = List.length old_events
      && List.for_all2
           (fun (k, at, a, b) (k', at', a', b') ->
             k = k' && bits_equal at at' && bits_equal a a' && bits_equal b b')
           events old_events)

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
          tc "matches queue reference" `Quick test_rolling_matches_reference;
          tc "cutoff boundary is strict" `Quick test_rolling_cutoff_boundary;
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
          qc shared_ring_matches_old_windows;
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
