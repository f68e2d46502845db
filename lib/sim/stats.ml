(* The running moments live in a float array rather than mutable
   fields: a float stored into this mixed record would be boxed, four
   times per [add]. *)
let mean_ix = 0

let m2_ix = 1

let min_ix = 2

let max_ix = 3

type t = {
  mutable n : int;
  acc : float array;  (* mean, m2, min, max *)
  reservoir : float array;
  reservoir_cap : int;
  mutable reservoir_n : int;
  rng : Rng.t;
}

let create ?(reservoir = 4096) ?(seed = 7) () =
  {
    n = 0;
    acc = [| 0.0; 0.0; infinity; neg_infinity |];
    reservoir = Array.make (max reservoir 1) 0.0;
    reservoir_cap = reservoir;
    reservoir_n = 0;
    rng = Rng.create ~seed;
  }

let add t x =
  t.n <- t.n + 1;
  let acc = t.acc in
  let delta = x -. acc.(mean_ix) in
  acc.(mean_ix) <- acc.(mean_ix) +. (delta /. float_of_int t.n);
  acc.(m2_ix) <- acc.(m2_ix) +. (delta *. (x -. acc.(mean_ix)));
  if x < acc.(min_ix) then acc.(min_ix) <- x;
  if x > acc.(max_ix) then acc.(max_ix) <- x;
  if t.reservoir_cap > 0 then
    if t.reservoir_n < t.reservoir_cap then begin
      t.reservoir.(t.reservoir_n) <- x;
      t.reservoir_n <- t.reservoir_n + 1
    end
    else begin
      (* Vitter's algorithm R: keep each element with probability cap/n. *)
      let j = Rng.int t.rng t.n in
      if j < t.reservoir_cap then t.reservoir.(j) <- x
    end

let mean t = if t.n = 0 then nan else t.acc.(mean_ix)

let variance t = if t.n < 2 then 0.0 else t.acc.(m2_ix) /. float_of_int (t.n - 1)

let quantile t q =
  if t.reservoir_n = 0 then nan
  else begin
    let sample = Array.sub t.reservoir 0 t.reservoir_n in
    Array.sort Float.compare sample;
    let pos = q *. float_of_int (t.reservoir_n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    if lo = hi then sample.(lo)
    else begin
      let w = pos -. float_of_int lo in
      ((1.0 -. w) *. sample.(lo)) +. (w *. sample.(hi))
    end
  end

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize (t : t) =
  {
    n = t.n;
    mean = mean t;
    stddev = sqrt (variance t);
    min = t.acc.(min_ix);
    max = t.acc.(max_ix);
    p50 = quantile t 0.5;
    p90 = quantile t 0.9;
    p99 = quantile t 0.99;
  }
