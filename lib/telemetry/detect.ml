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
  older : Rolling.t;  (* window [t-2w, t-w], approximated by delayed feed *)
  recent : Rolling.t;
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
    older = Rolling.create ~window_s;
    recent = Rolling.create ~window_s;
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
  Rolling.add t.recent ~time value;
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
      Rolling.add t.older ~time:ts (Float.Array.get t.buf_values t.buf_head);
      t.buf_head <- (t.buf_head + 1) mod cap;
      t.buf_len <- t.buf_len - 1
    end
    else continue := false
  done;
  let baseline = Rolling.mean t.older in
  if Rolling.count t.older >= 10 && not (Float.is_nan baseline) then
    if
      value -. baseline > spike_threshold_ms
      && time -. t.last_spike_at > window_s
    then begin
      t.last_spike_at <- time;
      push_event t ~kind:ev_spike ~at:time ~a:value ~b:baseline
    end
    else begin
      let recent_mean = Rolling.mean t.recent in
      if
        Rolling.count t.recent >= 10
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
