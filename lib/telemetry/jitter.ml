(* The running sum of window stddevs lives in a one-element float
   array: stored into a mutable field of this mixed record it would be
   boxed on every sample. *)
type t = {
  window : Rolling.t;
  recent : Ewma.t;
  sum_stddev : float array;
  mutable n : int;
}

(* The paper's 1 s window, and the per-sample weight of {!recent}. *)
let window_s = 1.0

let recent_alpha = 0.01

let of_ring ring =
  {
    window = Rolling.window ring ~window_s;
    recent = Ewma.create ~alpha:recent_alpha;
    sum_stddev = [| 0.0 |];
    n = 0;
  }

let create () = of_ring (Rolling.ring ())

(* Once the window has taken a sample; meaningful from two samples. *)
let fold t =
  if Rolling.count t.window >= 2 then begin
    let std = Rolling.stddev t.window in
    t.sum_stddev.(0) <- t.sum_stddev.(0) +. std;
    Ewma.add t.recent std;
    t.n <- t.n + 1
  end

let update t =
  Rolling.take t.window;
  fold t

let add t ~time value =
  Rolling.add t.window ~time value;
  fold t

let count t = Rolling.count t.window

let value t = if t.n = 0 then nan else t.sum_stddev.(0) /. float_of_int t.n

let recent t = Ewma.value t.recent
