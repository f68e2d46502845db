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
