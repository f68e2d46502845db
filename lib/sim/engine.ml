module Metric = Tango_obs.Metric

(* Process-wide observability: every engine in the process aggregates
   into the same counters (see DESIGN.md §8). *)
let m_events = Metric.counter ~help:"Simulation events executed" "sim_events_total"

let g_now =
  Metric.gauge ~help:"Virtual time reached by the most recent engine run"
    "sim_virtual_time_seconds"

(* The pending queue is a calendar queue (Brown, "Calendar queues", CACM
   1988) over (time, seq), where [seq] is the scheduling order that
   breaks ties FIFO. Each pending event owns a slot: its callback is
   stored once in [callbacks], and flat per-slot columns hold its time
   (unboxed), its seq, its day and its neighbours in its bucket ([next],
   [prev]; -1 ends a list). [free.(0 .. free_top - 1)] stacks the slots
   no pending event holds, and a free slot's day is -1.

   An event's day is its time times [days_per_s] (the inverse bucket
   width, in a one-element float array so that setting it boxes
   nothing), clamped to [max_day]. Day [d] lives in bucket [d land mask],
   and each bucket's events form a list sorted by (time, seq). No
   pending event's day precedes [cur_day], so a pop scans forward from
   [cur_day] to the first bucket whose head falls on the scanned day:
   that head is the global minimum. When a whole year ([mask + 1] days)
   holds no event, it searches the bucket heads directly.

   The width only moves cost, never order. Every [retune_every] fires it
   is set to twice the mean virtual gap those fires spanned, and each
   time the pending count n doubles, to 4 g / n, where g is the
   geometric mean of the pending delays (twice the gap within 2x for
   uniform or exponential delays), if it was off by more than 2x; every
   pending event is then relinked in place. The buckets double with the
   slots, when every slot is taken. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable size : int;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable days : int array;
  mutable next : int array;
  mutable prev : int array;
  mutable callbacks : (t -> unit) array;
  mutable free : int array;
  mutable free_top : int;
  mutable heads : int array;
  mutable tails : int array;
  mutable mask : int;
  mutable cur_day : int;
  days_per_s : Float.Array.t;
  mutable fires : int;
  mutable measure_at : int;
  mutable window_start : float;
  root_rng : Rng.t;
}

(* Every column then exceeds the largest block the minor heap takes (256
   words), so the queue never allocates on the minor heap, not even
   when it grows. *)
let min_capacity = 512

let retune_every = 1024

(* Far beyond any real day, and far enough below [max_int] that a year's
   scan past it cannot overflow. *)
let max_day = 1 lsl 60

(* Stands in for every callback that is not pending, so a fired closure
   is not kept alive by its old slot. *)
let noop (_ : t) = ()

(* Stack slots [first, capacity) as free: every other slot is taken. *)
let free_from t first =
  for s = first to Array.length t.free - 1 do
    t.free.(s - first) <- s
  done;
  t.free_top <- Array.length t.free - first

let create ?(seed = 42) () =
  let t =
    {
      clock = 0.0;
      next_seq = 0;
      size = 0;
      times = Float.Array.make min_capacity 0.0;
      seqs = Array.make min_capacity 0;
      days = Array.make min_capacity (-1);
      next = Array.make min_capacity (-1);
      prev = Array.make min_capacity (-1);
      callbacks = Array.make min_capacity noop;
      free = Array.make min_capacity 0;
      free_top = 0;
      heads = Array.make min_capacity (-1);
      tails = Array.make min_capacity (-1);
      mask = min_capacity - 1;
      cur_day = max_day;
      days_per_s = Float.Array.make 1 1.0;
      fires = 0;
      measure_at = 8;
      window_start = 0.0;
      root_rng = Rng.create ~seed;
    }
  in
  free_from t 0;
  t

let now t = t.clock

let rng t = t.root_rng

(* Times are never negative, so truncation is the floor; an infinite or
   huge quotient clamps. *)
let[@inline] day_of t time =
  let x = time *. Float.Array.get t.days_per_s 0 in
  if x < 0x1p60 then Float.to_int x else max_day

let[@inline] before t i j =
  let ti = Float.Array.get t.times i and tj = Float.Array.get t.times j in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

(* Put pending [slot], whose time and seq are stored, into its day's
   bucket: walk back from the bucket's tail past every entry after it
   in (time, seq) order. A new event has the largest seq, so its walk
   stops at the first entry not later than it. The cursor comes down to
   its day. *)
let link t slot =
  let day = day_of t (Float.Array.get t.times slot) in
  t.days.(slot) <- day;
  if day < t.cur_day then t.cur_day <- day;
  let b = day land t.mask in
  let p = ref t.tails.(b) in
  while !p >= 0 && before t slot !p do
    p := t.prev.(!p)
  done;
  let n = if !p < 0 then t.heads.(b) else t.next.(!p) in
  t.prev.(slot) <- !p;
  t.next.(slot) <- n;
  if !p < 0 then t.heads.(b) <- slot else t.next.(!p) <- slot;
  if n < 0 then t.tails.(b) <- slot else t.prev.(n) <- slot

(* Relink every pending event under the current width and mask. They
   are taken bucket by bucket from [heads] and [tails], the bucket
   arrays they are linked in (those of the smaller mask when the queue
   has just grown), each list in (time, seq) order: equal times share a
   day and so an old bucket, and arrive in seq order, and a new bucket
   mostly receives its events in order, so most walks stop at its tail.
   First every list is chained into one through [next]. The cursor ends
   at the earliest day. *)
let rebucket t ~heads ~tails =
  let first = ref (-1) and last = ref (-1) in
  for b = 0 to Array.length heads - 1 do
    let h = heads.(b) in
    if h >= 0 then begin
      if !last < 0 then first := h else t.next.(!last) <- h;
      last := tails.(b)
    end
  done;
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.fill t.tails 0 (Array.length t.tails) (-1);
  t.cur_day <- max_day;
  let s = ref !first in
  while !s >= 0 do
    let n = t.next.(!s) in
    link t !s;
    s := n
  done

(* Set the width to twice the mean gap of [count] events spread over
   [span] seconds, if it was off by more than 2x; true if it changed. No
   finite positive gap (ties only, or an infinite clock) keeps it. *)
let[@inline] set_width t ~count ~span =
  let per_s = float_of_int count /. (2.0 *. span)
  and current = Float.Array.get t.days_per_s 0 in
  per_s > 0.0 && per_s < Float.infinity
  && (per_s > 2.0 *. current || per_s < 0.5 *. current)
  && begin
       Float.Array.set t.days_per_s 0 per_s;
       true
     end

(* The geometric mean of the pending events' finite delays past the
   clock, or 0 if none has one: a few far events (timers, the end of a
   run) barely move it. *)
let[@inline] typical_delay t =
  let sum = ref 0.0 and n = ref 0 in
  for s = 0 to Array.length t.days - 1 do
    let delay = Float.Array.get t.times s -. t.clock in
    if t.days.(s) >= 0 && delay > 0.0 && delay < Float.infinity then begin
      sum := !sum +. log delay;
      incr n
    end
  done;
  if !n = 0 then 0.0 else exp (!sum /. float_of_int !n)

(* [a] at twice its length, the new half filled with [fill]. *)
let doubled a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Called only when every slot is taken: double the slot columns and the
   buckets together. *)
let grow t =
  let capacity = Array.length t.seqs in
  let times = Float.Array.make (2 * capacity) 0.0 in
  Float.Array.blit t.times 0 times 0 capacity;
  t.times <- times;
  t.seqs <- doubled t.seqs 0;
  t.days <- doubled t.days (-1);
  t.next <- doubled t.next (-1);
  t.prev <- doubled t.prev (-1);
  t.callbacks <- doubled t.callbacks noop;
  t.free <- Array.make (2 * capacity) 0;
  free_from t capacity;
  t.heads <- Array.make (2 * capacity) (-1);
  t.tails <- Array.make (2 * capacity) (-1);
  t.mask <- (2 * capacity) - 1

(* Called when the pending count reaches [measure_at], which doubles
   each time and never passes the slot count: grow if every slot is
   taken, measure the width from the pending delays, and relink if
   either changed. A world's set-up schedules hundreds of events before
   its first fire, and at the initial width of 1 s they would all share
   a bucket. *)
let expand t =
  let heads = t.heads and tails = t.tails in
  let full = t.size = Array.length t.seqs in
  if full then grow t;
  if set_width t ~count:t.size ~span:(2.0 *. typical_delay t) || full then
    rebucket t ~heads ~tails;
  t.measure_at <- Int.min (2 * t.size) (Array.length t.seqs)

(* Inlined into its callers so [time] stays unboxed. *)
let[@inline] push t time callback =
  if t.size = t.measure_at then expand t;
  let top = t.free_top - 1 in
  let slot = t.free.(top) in
  t.free_top <- top;
  t.callbacks.(slot) <- callback;
  Float.Array.set t.times slot time;
  t.seqs.(slot) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  link t slot

(* Each check is one negated comparison, which NaN fails too; the
   message is chosen only once the check has failed. *)
let invalid x ~if_nan ~otherwise =
  invalid_arg (if Float.is_nan x then if_nan else otherwise)

let schedule_at t ~time callback =
  if not (time >= t.clock) then
    invalid time ~if_nan:"Engine.schedule_at: NaN time"
      ~otherwise:"Engine.schedule_at: time precedes now";
  push t time callback

let schedule t ~delay callback =
  if not (delay >= 0.0) then
    invalid delay ~if_nan:"Engine.schedule: NaN delay"
      ~otherwise:"Engine.schedule: negative delay";
  push t (t.clock +. delay) callback

let every t ~interval ?until callback =
  if not (interval > 0.0) then
    invalid interval ~if_nan:"Engine.every: NaN interval"
      ~otherwise:"Engine.every: non-positive interval";
  let rec tick engine =
    callback engine;
    let next = now engine +. interval in
    match until with
    | Some stop when next > stop -> ()
    | Some _ | None -> schedule_at engine ~time:next tick
  in
  schedule t ~delay:0.0 tick

let pending t = t.size

(* The earliest bucket head. Heads never tie on time (equal times share
   a day, hence a bucket), so [before] decides on times alone here. *)
let earliest_head t =
  let best = ref (-1) in
  for b = 0 to t.mask do
    let h = t.heads.(b) in
    if h >= 0 && (!best < 0 || before t h !best) then best := h
  done;
  !best

(* The slot of the earliest pending event (the queue is not empty); the
   cursor moves to its day. *)
let first t =
  let day = ref t.cur_day and found = ref (-1) in
  let year_end = t.cur_day + t.mask + 1 in
  while !found < 0 && !day < year_end do
    let h = t.heads.(!day land t.mask) in
    if h >= 0 && t.days.(h) = !day then found := h else incr day
  done;
  if !found < 0 then begin
    found := earliest_head t;
    day := t.days.(!found)
  end;
  t.cur_day <- !day;
  !found

(* Measure the width from the last [retune_every] fires. *)
let retune t =
  let span = t.clock -. t.window_start in
  t.window_start <- t.clock;
  t.fires <- 0;
  if set_width t ~count:retune_every ~span then
    rebucket t ~heads:t.heads ~tails:t.tails

(* The event leaves the queue and its slot is freed before the callback
   runs, so a callback may schedule (reusing that slot) and a callback
   that raises leaves no trace of its event. *)
let step t =
  if t.size = 0 then false
  else begin
    let slot = first t in
    let b = t.days.(slot) land t.mask and n = t.next.(slot) in
    t.heads.(b) <- n;
    if n < 0 then t.tails.(b) <- -1 else t.prev.(n) <- -1;
    t.days.(slot) <- -1;
    t.size <- t.size - 1;
    let callback = t.callbacks.(slot) in
    t.callbacks.(slot) <- noop;
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1;
    t.clock <- Float.Array.get t.times slot;
    t.fires <- t.fires + 1;
    if t.fires = retune_every then retune t;
    Metric.incr m_events;
    if Metric.enabled () then Metric.set g_now t.clock;
    callback t;
    true
  end

let run ?until ?max_events t =
  (match until with
  | Some stop when not (stop >= t.clock) ->
      invalid stop ~if_nan:"Engine.run: NaN until"
        ~otherwise:"Engine.run: until precedes now"
  | Some _ | None -> ());
  let executed = ref 0 in
  let continue () =
    match max_events with None -> true | Some m -> !executed < m
  in
  let rec loop () =
    if continue () && t.size > 0 then
      match until with
      | Some stop when Float.Array.get t.times (first t) > stop ->
          t.clock <- stop;
          Metric.set g_now t.clock
      | Some _ | None ->
          ignore (step t);
          incr executed;
          loop ()
  in
  loop ()
