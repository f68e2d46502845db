module Metric = Tango_obs.Metric

(* Process-wide observability: every engine in the process aggregates
   into the same counters (see DESIGN.md §8). *)
let m_events = Metric.counter ~help:"Simulation events executed" "sim_events_total"

let g_now =
  Metric.gauge ~help:"Virtual time reached by the most recent engine run"
    "sim_virtual_time_seconds"

(* The pending queue is a 4-ary min-heap over (time, seq) kept in three
   parallel arrays: [times] (unboxed), [seqs] (scheduling order, which
   breaks ties FIFO) and [slots] (where the event's callback sits in
   [callbacks]). Sifting moves only these scalars, so scheduling builds
   no event record and writes no pointer per heap level: a callback is
   stored once when scheduled and cleared once when it fires.
   [free.(0 .. free_top - 1)] stacks the slots no pending event holds. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable size : int;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable callbacks : (t -> unit) array;
  mutable free : int array;
  mutable free_top : int;
  root_rng : Rng.t;
}

(* Stands in for every callback that is not pending, so a fired closure
   is not kept alive by its old slot. *)
let noop (_ : t) = ()

(* Stack slots [first, capacity) as free: every other slot is taken. *)
let free_from t first =
  for s = first to Array.length t.free - 1 do
    t.free.(s - first) <- s
  done;
  t.free_top <- Array.length t.free - first

let create ?(seed = 42) ?(heap_capacity = 0) () =
  if heap_capacity < 0 then invalid_arg "Engine.create: negative heap_capacity";
  let capacity = Int.max 8 heap_capacity in
  let t =
    {
      clock = 0.0;
      next_seq = 0;
      size = 0;
      times = Float.Array.make capacity 0.0;
      seqs = Array.make capacity 0;
      slots = Array.make capacity 0;
      callbacks = Array.make capacity noop;
      free = Array.make capacity 0;
      free_top = 0;
      root_rng = Rng.create ~seed;
    }
  in
  free_from t 0;
  t

let now t = t.clock

let rng t = t.root_rng

(* Called only when every slot is taken: double all arrays together. *)
let grow t =
  let capacity = Array.length t.seqs in
  t.times <- Float.Array.append t.times (Float.Array.make capacity 0.0);
  t.seqs <- Array.append t.seqs (Array.make capacity 0);
  t.slots <- Array.append t.slots (Array.make capacity 0);
  t.callbacks <- Array.append t.callbacks (Array.make capacity noop);
  t.free <- Array.make (2 * capacity) 0;
  free_from t capacity

let[@inline] move t ~src ~dst =
  Float.Array.set t.times dst (Float.Array.get t.times src);
  t.seqs.(dst) <- t.seqs.(src);
  t.slots.(dst) <- t.slots.(src)

(* Inlined into its callers so [time] stays unboxed. The new entry's seq
   exceeds every pending one, so a parent with an equal time already
   precedes it and the sift-up compares times only. *)
let[@inline] push t time callback =
  if t.size = Array.length t.seqs then grow t;
  let top = t.free_top - 1 in
  let slot = t.free.(top) in
  t.free_top <- top;
  t.callbacks.(slot) <- callback;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let hole = ref t.size in
  t.size <- t.size + 1;
  while !hole > 0 && time < Float.Array.get t.times ((!hole - 1) / 4) do
    let parent = (!hole - 1) / 4 in
    move t ~src:parent ~dst:!hole;
    hole := parent
  done;
  Float.Array.set t.times !hole time;
  t.seqs.(!hole) <- seq;
  t.slots.(!hole) <- slot

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

let[@inline] before t i j =
  let ti = Float.Array.get t.times i and tj = Float.Array.get t.times j in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

(* Remove the root: sift the last entry down from the root's hole over
   at most four children per level. The entry stays at index [last]
   until it settles, so the comparisons read it there. *)
let pop_root t =
  let last = t.size - 1 in
  t.size <- last;
  let hole = ref 0 and sinking = ref true in
  while !sinking do
    let first = (4 * !hole) + 1 in
    let best = ref last in
    for c = first to Int.min (first + 3) (last - 1) do
      if before t c !best then best := c
    done;
    if !best = last then sinking := false
    else begin
      move t ~src:!best ~dst:!hole;
      hole := !best
    end
  done;
  move t ~src:last ~dst:!hole

(* The event leaves the queue and its slot is freed before the callback
   runs, so a callback may schedule (reusing that slot) and a callback
   that raises leaves no trace of its event. *)
let step t =
  if t.size = 0 then false
  else begin
    let time = Float.Array.get t.times 0 in
    let slot = t.slots.(0) in
    pop_root t;
    let callback = t.callbacks.(slot) in
    t.callbacks.(slot) <- noop;
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1;
    t.clock <- time;
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
      | Some stop when Float.Array.get t.times 0 > stop ->
          t.clock <- stop;
          Metric.set g_now t.clock
      | Some _ | None ->
          ignore (step t);
          incr executed;
          loop ()
  in
  loop ()

let cancel_all t =
  t.size <- 0;
  Array.fill t.callbacks 0 (Array.length t.callbacks) noop;
  free_from t 0
