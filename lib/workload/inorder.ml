(* A flat ring of network arrival times indexed by [seq - next_seq]:
   slot [(head + k) land (capacity - 1)] holds the arrival time of
   sequence number [next_seq + k], or NaN while that packet is missing.
   The ring doubles when a packet arrives further ahead than it spans,
   so it is as wide as the widest gap seen. A release copies the run's
   arrival times into [run] and clears their slots, so nothing is kept
   per packet once it has been released. *)
type t = {
  mutable next_seq : int;
  mutable ring : float array;
  mutable head : int;  (* slot of [next_seq] *)
  mutable run : float array;  (* arrival times of the last released run *)
  mutable run_len : int;
}

let initial_capacity = 64

let create () =
  {
    next_seq = 0;
    ring = Array.make initial_capacity nan;
    head = 0;
    run = Array.make initial_capacity nan;
    run_len = 0;
  }

(* Double the ring until it spans [ahead + 1] slots, unrolling the wrap
   so [next_seq] sits at slot 0. *)
let grow t ~ahead =
  let cap = Array.length t.ring in
  let new_cap = ref (2 * cap) in
  while !new_cap <= ahead do
    new_cap := 2 * !new_cap
  done;
  let ring = Array.make !new_cap nan in
  let first = cap - t.head in
  Array.blit t.ring t.head ring 0 first;
  Array.blit t.ring 0 ring first t.head;
  t.ring <- ring;
  t.head <- 0

let arrive t ~seq ~time =
  if Float.is_nan time then invalid_arg "Inorder.arrive: NaN arrival time";
  t.run_len <- 0;
  let ahead = seq - t.next_seq in
  if ahead < 0 then 0
  else begin
    if ahead >= Array.length t.ring then grow t ~ahead;
    let mask = Array.length t.ring - 1 in
    let slot = (t.head + ahead) land mask in
    if not (Float.is_nan t.ring.(slot)) then 0 (* a duplicate *)
    else begin
      t.ring.(slot) <- time;
      if ahead > 0 then 0
      else begin
        (* This arrival fills the head: release the contiguous run. *)
        let n = ref 0 in
        while not (Float.is_nan t.ring.(t.head)) do
          if !n = Array.length t.run then begin
            let run = Array.make (2 * !n) nan in
            Array.blit t.run 0 run 0 !n;
            t.run <- run
          end;
          t.run.(!n) <- t.ring.(t.head);
          t.ring.(t.head) <- nan;
          t.head <- (t.head + 1) land mask;
          incr n
        done;
        t.next_seq <- t.next_seq + !n;
        t.run_len <- !n;
        !n
      end
    end
  end

let run_arrival t i =
  if i < 0 || i >= t.run_len then
    invalid_arg "Inorder.run_arrival: no such packet in the last run";
  t.run.(i)
