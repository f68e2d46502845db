(* One ring of (time, value) samples in two unboxed float arrays, and
   windows that are index ranges into it with their own running sums.
   Sample [k] sits in slot [k land (capacity - 1)], so a window's bounds
   stay valid while the ring grows. The ring keeps every sample from its
   windows' oldest start, and allocates nothing once it has grown. *)

type ring = {
  mutable times : float array;
  mutable vals : float array;
  mutable first : int;  (* oldest sample kept *)
  mutable next : int;  (* index of the next sample pushed *)
  mutable windows : t list;
  (* The newest sample's time, in a float array: a mutable float field
     of this mixed record would be boxed on every push. *)
  newest : float array;
}

(* Samples [start, stop) of [ring]. The running sums live in a flat
   float array for the same reason as [newest]. *)
and t = {
  ring : ring;
  window_s : float;
  mutable start : int;
  mutable stop : int;
  acc : float array;  (* sum, sum_sq *)
}

let ring () =
  {
    times = Array.make 16 0.0;
    vals = Array.make 16 0.0;
    first = 0;
    next = 0;
    windows = [];
    newest = [| neg_infinity |];
  }

let rec oldest_start k windows =
  match windows with [] -> k | w :: ws -> oldest_start (Int.min k w.start) ws

(* Cold: drop the samples before every window's start, and double the
   arrays if that frees nothing. *)
let make_room r =
  r.first <- oldest_start r.next r.windows;
  let cap = Array.length r.times in
  if r.next - r.first = cap then begin
    let times = Array.make (2 * cap) 0.0 and vals = Array.make (2 * cap) 0.0 in
    for k = r.first to r.next - 1 do
      times.(k land ((2 * cap) - 1)) <- r.times.(k land (cap - 1));
      vals.(k land ((2 * cap) - 1)) <- r.vals.(k land (cap - 1))
    done;
    r.times <- times;
    r.vals <- vals
  end

let[@hot] push r ~time value =
  if time < r.newest.(0) then invalid_arg "Rolling.push: time went backwards";
  r.newest.(0) <- time;
  if r.next - r.first = Array.length r.times then make_room r;
  let i = r.next land (Array.length r.times - 1) in
  Array.unsafe_set r.times i time;
  Array.unsafe_set r.vals i value;
  r.next <- r.next + 1

(* The accessors are inlined so their floats never leave the caller's
   registers: a float returned from a function call is boxed. *)
let[@hot] [@inline] time_at r k = Array.unsafe_get r.times (k land (Array.length r.times - 1))

let[@hot] [@inline] value_at r k = Array.unsafe_get r.vals (k land (Array.length r.vals - 1))

let sum_ix = 0

let sum_sq_ix = 1

let window r ~window_s =
  if window_s <= 0.0 then invalid_arg "Rolling.window: non-positive window";
  let w = { ring = r; window_s; start = r.next; stop = r.next; acc = [| 0.0; 0.0 |] } in
  r.windows <- w :: r.windows;
  w

let create ~window_s = window (ring ()) ~window_s

(* Take the sample at [stop], then evict those older than its time
   minus the width: one add per sample taken, then one subtract per
   sample evicted, so the sums never depend on what shares the ring. *)
let[@hot] take t =
  let r = t.ring in
  if t.stop < r.next then begin
    let time = time_at r t.stop and v = value_at r t.stop in
    t.stop <- t.stop + 1;
    t.acc.(sum_ix) <- t.acc.(sum_ix) +. v;
    t.acc.(sum_sq_ix) <- t.acc.(sum_sq_ix) +. (v *. v);
    let cutoff = time -. t.window_s in
    while t.start < t.stop && time_at r t.start < cutoff do
      let old = value_at r t.start in
      t.start <- t.start + 1;
      t.acc.(sum_ix) <- t.acc.(sum_ix) -. old;
      t.acc.(sum_sq_ix) <- t.acc.(sum_sq_ix) -. (old *. old)
    done
  end

let[@hot] take_aged t ~now =
  let r = t.ring in
  let horizon = now -. t.window_s in
  while t.stop < r.next && time_at r t.stop <= horizon do
    take t
  done

let add t ~time value =
  push t.ring ~time value;
  take t

let count t = t.stop - t.start

let pending t = t.ring.next - t.stop

let[@inline] mean t =
  let n = count t in
  if n = 0 then nan else t.acc.(sum_ix) /. float_of_int n

let[@hot] mean_into t into i = into.(i) <- mean t

let stddev t =
  let n = count t in
  if n < 2 then 0.0
  else begin
    let nf = float_of_int n in
    (* [** 2.0], not [x *. x]: they round apart on ~42k of 5*10^7 doubles. *)
    let variance =
      (t.acc.(sum_sq_ix) /. nf) -. ((t.acc.(sum_ix) /. nf) ** 2.0)
    in
    sqrt (Float.max 0.0 variance)
  end
