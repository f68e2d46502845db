type t = {
  mutable times : float array;
  mutable vals : float array;
  mutable size : int;
}

let create ?(capacity = 1024) () =
  let capacity = max capacity 1 in
  { times = Array.make capacity 0.0; vals = Array.make capacity 0.0; size = 0 }

let length t = t.size

let add t ~time value =
  if t.size > 0 && time < t.times.(t.size - 1) then
    (* tango-lint: allow hot-reach — raise path only: an out-of-order sample is a caller bug *)
    invalid_arg (Printf.sprintf "Series.add: time %g precedes last sample %g" time
         t.times.(t.size - 1));
  if t.size = Array.length t.times then begin
    let capacity = 2 * Array.length t.times in
    let times = Array.make capacity 0.0 and vals = Array.make capacity 0.0 in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.times <- times;
    t.vals <- vals
  end;
  t.times.(t.size) <- time;
  t.vals.(t.size) <- value;
  t.size <- t.size + 1

let check_index t i =
  if i < 0 || i >= t.size then invalid_arg "Series: index out of bounds"

let time_at t i =
  check_index t i;
  t.times.(i)

let value_at t i =
  check_index t i;
  t.vals.(i)

let first_time t = if t.size = 0 then None else Some t.times.(0)

let last_time t = if t.size = 0 then None else Some t.times.(t.size - 1)

let last_value t = if t.size = 0 then None else Some t.vals.(t.size - 1)

let iter t f =
  for i = 0 to t.size - 1 do
    f ~time:t.times.(i) ~value:t.vals.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc ~time:t.times.(i) ~value:t.vals.(i)
  done;
  !acc

let stats t =
  let s = Tango_sim.Stats.create () in
  for i = 0 to t.size - 1 do
    Tango_sim.Stats.add s t.vals.(i)
  done;
  Tango_sim.Stats.summarize s

(* First index with time >= target, by binary search. *)
let lower_bound t target =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.times.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

let between t ~t0 ~t1 =
  let start = lower_bound t t0 and stop = lower_bound t t1 in
  let out = create ~capacity:(max 1 (stop - start)) () in
  for i = start to stop - 1 do
    add out ~time:t.times.(i) t.vals.(i)
  done;
  out

let downsample t ~bucket_s =
  if bucket_s <= 0.0 then invalid_arg "Series.downsample: non-positive bucket";
  let out = create () in
  if t.size > 0 then begin
    let bucket_start = ref (Float.of_int (int_of_float (t.times.(0) /. bucket_s)) *. bucket_s) in
    let sum = ref 0.0 and n = ref 0 in
    let flush () =
      if !n > 0 then add out ~time:!bucket_start (!sum /. float_of_int !n);
      sum := 0.0;
      n := 0
    in
    for i = 0 to t.size - 1 do
      let b = Float.of_int (int_of_float (t.times.(i) /. bucket_s)) *. bucket_s in
      if b > !bucket_start then begin
        flush ();
        bucket_start := b
      end;
      sum := !sum +. t.vals.(i);
      incr n
    done;
    flush ()
  end;
  out
