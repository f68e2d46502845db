(* The million-flow workload engine (DESIGN.md §14): a seeded generator
   of per-flow send schedules that look like edge traffic instead of a
   synthetic full-mesh blast. Three ingredients, each independently
   testable:

   - Heavy-tailed sizes. Bulk flow sizes draw from a bounded Pareto
     (inverse CDF), so most flows are mice and a few are elephants —
     the regime where a per-flow decision cache earns its keep.
   - Diurnal arrival waves. Flow start times sample a sinusoidally
     modulated intensity over the horizon, so load peaks and troughs
     like a day of user traffic. The modulation conserves total mass:
     depth changes *when* flows arrive, never how many.
   - Traffic classes. Short RPC (a few packets, back to back), bulk
     (Pareto-sized, back to back), and video-like CBR (fixed cadence,
     one packet every [video_stride] generations).

   The output is a [plan]: four flat int arrays (class, start, stride,
   packet count) indexed by flow. A plan is pure data: [sends_at] and
   [seq_index] define, per (flow, generation), whether the flow sends
   and its tunnel sequence number. The dataplane walks per-generation
   send lists compiled from the plan ([Sends]) instead of asking every
   flow, so the same plan drives any lane partition to byte-identical
   schedules. Everything derives from the seed via SplitMix64; no wall
   clock, no global state. *)

module Rng = Tango_sim.Rng

type cls = Rpc | Bulk | Video

let cls_to_int = function Rpc -> 0 | Bulk -> 1 | Video -> 2

type mix = { rpc : float; bulk : float; video : float }

type config = {
  flows : int;
  generations : int;  (* horizon, in dataplane generations (1 ms each) *)
  seed : int;
  mix : mix;
  alpha : float;  (* bounded-Pareto tail exponent for bulk sizes *)
  size_lo : float;  (* bulk size bounds, in packets *)
  size_hi : float;
  waves : float;  (* diurnal wave periods across the horizon *)
  wave_depth : float;  (* modulation depth in [0, 1) *)
  rpc_max : int;  (* RPC sizes uniform in [1, rpc_max] packets *)
  video_stride : int;  (* CBR cadence: one packet per this many gens *)
  video_pkts : int;  (* CBR segment length cap, in packets *)
}

let default_config ?(flows = 10_000) ?(generations = 400) ?(seed = 42) () =
  {
    flows;
    generations;
    seed;
    mix = { rpc = 0.5; bulk = 0.3; video = 0.2 };
    alpha = 1.3;
    size_lo = 8.0;
    size_hi = 2_000.0;
    waves = 2.0;
    wave_depth = 0.6;
    rpc_max = 3;
    video_stride = 4;
    video_pkts = 120;
  }

let validate c =
  if c.flows <= 0 then invalid_arg "Load: flows must be positive";
  if c.generations <= 0 then invalid_arg "Load: generations must be positive";
  if c.mix.rpc < 0.0 || c.mix.bulk < 0.0 || c.mix.video < 0.0 then
    invalid_arg "Load: negative class share";
  let s = c.mix.rpc +. c.mix.bulk +. c.mix.video in
  if Float.abs (s -. 1.0) > 1e-9 then
    invalid_arg "Load: class mix must sum to 1";
  if c.alpha <= 0.0 then invalid_arg "Load: alpha must be positive";
  if c.size_lo < 1.0 || c.size_hi <= c.size_lo then
    invalid_arg "Load: need 1 <= size_lo < size_hi";
  if c.waves <= 0.0 then invalid_arg "Load: waves must be positive";
  if c.wave_depth < 0.0 || c.wave_depth >= 1.0 then
    invalid_arg "Load: wave_depth must be in [0, 1)";
  if c.rpc_max < 1 then invalid_arg "Load: rpc_max must be >= 1";
  if c.video_stride < 1 then invalid_arg "Load: video_stride must be >= 1";
  if c.video_pkts < 1 then invalid_arg "Load: video_pkts must be >= 1"

(* Bounded Pareto on [lo, hi] with tail exponent alpha, by inverting
   F(x) = (1 - (lo/x)^alpha) / (1 - (lo/hi)^alpha). As hi -> infinity
   this degrades gracefully to the pure Pareto inverse CDF. *)
let bounded_pareto rng ~alpha ~lo ~hi =
  let u = Rng.float rng 1.0 in
  let tail = 1.0 -. ((lo /. hi) ** alpha) in
  lo *. ((1.0 -. (u *. tail)) ** (-1.0 /. alpha))

(* Relative arrival intensity at generation [g]: 1 + depth * sin over
   [waves] full periods. Summed over the horizon the sine integrates to
   ~0, so total mass stays [generations] regardless of depth. *)
let diurnal_weight ~generations ~waves ~depth g =
  let phase =
    2.0 *. Float.pi *. waves *. ((float_of_int g +. 0.5) /. float_of_int generations)
  in
  1.0 +. (depth *. sin phase)

let diurnal_cumulative ~generations ~waves ~depth =
  let cum = Array.make generations 0.0 in
  let acc = ref 0.0 in
  for g = 0 to generations - 1 do
    acc := !acc +. diurnal_weight ~generations ~waves ~depth g;
    cum.(g) <- !acc
  done;
  cum

(* Smallest g with cum.(g) > u — inverse-CDF sampling of a start
   generation from the diurnal intensity. *)
let sample_start rng cum =
  let total = cum.(Array.length cum - 1) in
  let u = Rng.float rng total in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

type plan = {
  config : config;
  cls : int array;  (* per-flow class tag, cls_to_int *)
  start_gen : int array;
  stride : int array;
  pkts : int array;  (* sends scheduled inside the horizon *)
  total_packets : int;
  max_gen_sends : int;
}

let plan config =
  validate config;
  let n = config.flows and gens = config.generations in
  let rng = Rng.create ~seed:config.seed in
  let cum =
    diurnal_cumulative ~generations:gens ~waves:config.waves
      ~depth:config.wave_depth
  in
  let cls = Array.make n 0 in
  let start_gen = Array.make n 0 in
  let stride = Array.make n 1 in
  let pkts = Array.make n 0 in
  (* Offered packets per generation, for the peak. *)
  let gen_sends = Array.make gens 0 in
  let total = ref 0 in
  for f = 0 to n - 1 do
    let u = Rng.float rng 1.0 in
    let c = if u < config.mix.rpc then Rpc
            else if u < config.mix.rpc +. config.mix.bulk then Bulk
            else Video
    in
    let start = sample_start rng cum in
    let st, size =
      match c with
      | Rpc -> (1, 1 + Rng.int rng config.rpc_max)
      | Bulk ->
          let s =
            bounded_pareto rng ~alpha:config.alpha ~lo:config.size_lo
              ~hi:config.size_hi
          in
          (1, int_of_float (Float.ceil s))
      | Video -> (config.video_stride, config.video_pkts)
    in
    (* Clip the schedule to the horizon: a flow sends at
       start, start+st, ... while the index stays under its size and the
       generation under the horizon. *)
    let max_sends = ((gens - start) + st - 1) / st in
    let sends = if size < max_sends then size else max_sends in
    cls.(f) <- cls_to_int c;
    start_gen.(f) <- start;
    stride.(f) <- st;
    pkts.(f) <- sends;
    for k = 0 to sends - 1 do
      let g = start + (k * st) in
      gen_sends.(g) <- gen_sends.(g) + 1
    done;
    total := !total + sends
  done;
  let max_gen_sends = Array.fold_left (fun a b -> if b > a then b else a) 0 gen_sends in
  {
    config;
    cls;
    start_gen;
    stride;
    pkts;
    total_packets = !total;
    max_gen_sends;
  }

(* The E14 full-mesh blast expressed as a plan: every flow sends one
   packet every generation for the whole horizon. Drives the unified
   dataplane loop to byte-identical behavior with the pre-plan code. *)
let uniform ~flows ~generations =
  if flows <= 0 || generations <= 0 then
    invalid_arg "Load.uniform: flows and generations must be positive";
  let c = default_config ~flows ~generations () in
  {
    config = c;
    cls = Array.make flows (cls_to_int Bulk);
    start_gen = Array.make flows 0;
    stride = Array.make flows 1;
    pkts = Array.make flows generations;
    total_packets = flows * generations;
    max_gen_sends = flows;
  }

let flows plan = plan.config.flows

let generations plan = plan.config.generations

let max_gen_sends plan = plan.max_gen_sends

let flow_pkts plan f = plan.pkts.(f)

let[@inline] sends_at plan ~flow ~gen =
  let d = gen - Array.unsafe_get plan.start_gen flow in
  d >= 0
  &&
  let st = Array.unsafe_get plan.stride flow in
  d mod st = 0 && d / st < Array.unsafe_get plan.pkts flow

let[@inline] seq_index plan ~flow ~gen =
  (gen - Array.unsafe_get plan.start_gen flow)
  / Array.unsafe_get plan.stride flow

(* Compiled send lists. One window of [window] generations is compiled
   at a time from the flows that still have sends left (the active set,
   kept in ascending flow order) merged with the flows whose start falls
   in the window (pre-sorted by (start window, flow) at creation). A
   count pass sizes each generation's slice, a fill pass writes
   (flow, send index) into it — visiting flows in ascending order, so
   every slice is ascending too — and keeps the flows that still send
   after the window. Memory: the lane's flows, the active set, and one
   window's sends; every buffer is sized at creation, so compiling
   allocates nothing. *)
module Sends = struct
  type t = {
    plan : plan;
    starters : int array;  (* flows sorted by (start window, flow) *)
    win_first : int array;  (* window w's starters: [win_first.(w), win_first.(w+1)) *)
    active : int array;  (* flows with sends after [hi], ascending *)
    mutable n_active : int;
    merged : int array;  (* this window's senders, ascending *)
    mutable next : int;  (* next window to compile *)
    mutable lo : int;  (* compiled generations are [lo, hi) *)
    mutable hi : int;
    off : int array;
        (* generation lo+j's sends are [off.(j), off.(j+1) - slice_pad) *)
    cur : int array;  (* fill cursors *)
    flows : int array;
    seqs : int array;
  }

  (* Slack after every generation's slice. The fill pass writes one
     entry into each slice per flow, i.e. strided by the slice length;
     when that is a power of two (the uniform blast's 512 flows is
     exactly 4 KiB of ints) every write maps to the same cache set. One
     cache line of slack per slice spreads them: the fill runs twice as
     fast on the blast. *)
  let slice_pad = 8

  (* Sends of [f] before generation [g]; its first send index at or
     after [g] when that is under [pkts]. *)
  let[@inline] sends_before plan f g =
    let start = Array.unsafe_get plan.start_gen f in
    if start >= g then 0
    else
      let st = Array.unsafe_get plan.stride f in
      Int.min (Array.unsafe_get plan.pkts f) ((g - start + st - 1) / st)

  (* Generations compiled at a time: long enough to amortize a window's
     merge over its sends, short enough that one window's lists stay
     cache-resident. *)
  let window = 32

  let create plan ~flows =
    let gens = plan.config.generations in
    let n = Array.length flows in
    Array.iteri
      (fun i f ->
        if f < 0 || f >= plan.config.flows then
          invalid_arg "Load.Sends.create: flow outside the plan";
        if i > 0 && f <= flows.(i - 1) then
          invalid_arg "Load.Sends.create: flows must be strictly ascending")
      flows;
    let nwin = (gens + window - 1) / window in
    let span = Int.min window gens in
    (* Counting sort by start window; stable, so each window's starters
       stay in ascending flow order. Alongside, each window's send
       total, which sizes the list buffers. *)
    let win_first = Array.make (nwin + 1) 0 in
    let win_sends = Array.make nwin 0 in
    Array.iter
      (fun f ->
        let start = plan.start_gen.(f) in
        let w0 = start / window in
        win_first.(w0 + 1) <- win_first.(w0 + 1) + 1;
        let last = start + ((plan.pkts.(f) - 1) * plan.stride.(f)) in
        for w = w0 to last / window do
          let g0 = w * window in
          win_sends.(w) <-
            win_sends.(w)
            + sends_before plan f (Int.min gens (g0 + window))
            - sends_before plan f g0
        done)
      flows;
    for w = 1 to nwin do
      win_first.(w) <- win_first.(w) + win_first.(w - 1)
    done;
    let starters = Array.make n 0 in
    let fill = Array.sub win_first 0 nwin in
    Array.iter
      (fun f ->
        let w = plan.start_gen.(f) / window in
        starters.(fill.(w)) <- f;
        fill.(w) <- fill.(w) + 1)
      flows;
    let cap = Array.fold_left Int.max 0 win_sends + (span * slice_pad) in
    {
      plan;
      starters;
      win_first;
      active = Array.make n 0;
      n_active = 0;
      merged = Array.make n 0;
      next = 0;
      lo = 0;
      hi = 0;
      off = Array.make (span + 1) 0;
      cur = Array.make span 0;
      flows = Array.make cap 0;
      seqs = Array.make cap 0;
    }

  let compile_next t =
    let plan = t.plan in
    let w = t.next in
    let g0 = w * window in
    let g1 = Int.min plan.config.generations (g0 + window) in
    (* Merge the carried active set with this window's starters. *)
    let active = t.active and merged = t.merged in
    let na = t.n_active in
    let s = ref t.win_first.(w) and s_end = t.win_first.(w + 1) in
    let i = ref 0 and m = ref 0 in
    while !i < na || !s < s_end do
      if !s >= s_end || (!i < na && active.(!i) < t.starters.(!s)) then begin
        merged.(!m) <- active.(!i);
        incr i
      end
      else begin
        merged.(!m) <- t.starters.(!s);
        incr s
      end;
      incr m
    done;
    let m = !m in
    (* Count pass. *)
    let off = t.off in
    Array.fill off 0 (Array.length off) 0;
    for i = 0 to m - 1 do
      let f = merged.(i) in
      let st = plan.stride.(f) and pk = plan.pkts.(f) in
      let k = ref (sends_before plan f g0) in
      let g = ref (plan.start_gen.(f) + (!k * st)) in
      while !g < g1 && !k < pk do
        let j = !g - g0 + 1 in
        off.(j) <- off.(j) + 1;
        g := !g + st;
        incr k
      done
    done;
    let span = g1 - g0 in
    for j = 1 to span do
      off.(j) <- off.(j) + off.(j - 1) + slice_pad
    done;
    (* Fill pass, in ascending flow order; the flows that still send
       after the window become the next active set. *)
    Array.blit off 0 t.cur 0 span;
    let cur = t.cur and flows = t.flows and seqs = t.seqs in
    let kept = ref 0 in
    for i = 0 to m - 1 do
      let f = merged.(i) in
      let st = plan.stride.(f) and pk = plan.pkts.(f) in
      let k = ref (sends_before plan f g0) in
      let g = ref (plan.start_gen.(f) + (!k * st)) in
      while !g < g1 && !k < pk do
        let j = !g - g0 in
        let pos = cur.(j) in
        flows.(pos) <- f;
        seqs.(pos) <- !k;
        cur.(j) <- pos + 1;
        g := !g + st;
        incr k
      done;
      if !k < pk then begin
        active.(!kept) <- f;
        incr kept
      end
    done;
    t.n_active <- !kept;
    t.next <- w + 1;
    t.lo <- g0;
    t.hi <- g1

  let seek t ~gen =
    if gen < t.lo || gen >= t.plan.config.generations then
      invalid_arg "Load.Sends.seek: generation behind the window or past the horizon";
    while gen >= t.hi do
      compile_next t
    done

  let[@inline] check t gen =
    if gen < t.lo || gen >= t.hi then
      invalid_arg "Load.Sends: generation outside the compiled window"

  let first t ~gen =
    check t gen;
    t.off.(gen - t.lo)

  let stop t ~gen =
    check t gen;
    t.off.(gen - t.lo + 1) - slice_pad

  let flows t = t.flows
  let seqs t = t.seqs
end

let class_counts plan =
  let rpc = ref 0 and bulk = ref 0 and video = ref 0 in
  Array.iter
    (fun c ->
      if c = 0 then incr rpc else if c = 1 then incr bulk else incr video)
    plan.cls;
  (!rpc, !bulk, !video)

let pp_summary ppf plan =
  let rpc, bulk, video = class_counts plan in
  Format.fprintf ppf
    "flows=%d (rpc=%d bulk=%d video=%d) gens=%d packets=%d peak-gen=%d"
    plan.config.flows rpc bulk video plan.config.generations
    plan.total_packets plan.max_gen_sends
