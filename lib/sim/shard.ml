(* Flow-sharded domain lanes.

   The multicore dataplane (DESIGN.md §11) splits flows across N lanes
   by flow hash; each lane runs on an OCaml 5 domain of its own (lane 0
   on the caller's) against its own lane-local state (fabric, trackers,
   caches, rings, folded results), so the per-packet path takes no lock
   and shares no mutable cache line. No ring crosses a domain: a lane
   fills and drains its own rings and folds what it drains, and the
   caller reads the lanes' partials only after [run] has joined them
   all. The join is the one synchronisation point, which is why the
   ring cursors are plain ints.

   Rings are preallocated flat arrays (no per-record boxing). Code in
   other modules moves records in and out through columns ([scatter],
   [drain_into]) so no float crosses the module boundary boxed; the
   scalar [Ring.push] and the [record] scratch box their two floats
   when called from outside. *)

let lane_of_hash ~lanes hash =
  if lanes <= 0 then invalid_arg "Shard.lane_of_hash: non-positive lane count";
  (hash land max_int) mod lanes

module Ring = struct
  type t = {
    mask : int;
    time : float array;
    a : int array;
    b : int array;
    c : int array;
    v : float array;
    mutable tail : int;  (* next slot to fill *)
    mutable head : int;  (* next slot to read *)
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Shard.Ring.create: non-positive capacity";
    let cap = ref 1 in
    while !cap < capacity do
      cap := !cap * 2
    done;
    let n = !cap in
    {
      mask = n - 1;
      time = Array.make n 0.0;
      a = Array.make n 0;
      b = Array.make n 0;
      c = Array.make n 0;
      v = Array.make n 0.0;
      tail = 0;
      head = 0;
    }

  let capacity t = t.mask + 1

  let is_empty t = t.tail = t.head

  (* The write cursor, checked for room: rings do not block. *)
  let[@hot] tail_for_push t =
    let tail = t.tail in
    if tail - t.head > t.mask then
      invalid_arg "Shard.Ring: ring full (undersized for the workload)";
    tail

  let[@hot] push t ~time ~a ~b ~c ~v =
    let tail = tail_for_push t in
    let i = tail land t.mask in
    Array.unsafe_set t.time i time;
    Array.unsafe_set t.a i a;
    Array.unsafe_set t.b i b;
    Array.unsafe_set t.c i c;
    Array.unsafe_set t.v i v;
    t.tail <- tail + 1

  let[@hot] peek_time t =
    if t.tail = t.head then infinity
    else Array.unsafe_get t.time (t.head land t.mask)

  let[@hot] peek_b t =
    if t.tail = t.head then max_int else Array.unsafe_get t.b (t.head land t.mask)
end

type record = {
  mutable time : float;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable v : float;
}

let scratch () = { time = 0.0; a = 0; b = 0; c = 0; v = 0.0 }

let pop_into (ring : Ring.t) (r : record) =
  let head = ring.Ring.head in
  if ring.Ring.tail = head then invalid_arg "Shard.pop_into: empty ring";
  let i = head land ring.Ring.mask in
  r.time <- Array.unsafe_get ring.Ring.time i;
  r.a <- Array.unsafe_get ring.Ring.a i;
  r.b <- Array.unsafe_get ring.Ring.b i;
  r.c <- Array.unsafe_get ring.Ring.c i;
  r.v <- Array.unsafe_get ring.Ring.v i;
  ring.Ring.head <- head + 1

(* Columns in, rings out: record [i] of the columns goes onto ring
   [c.(i)]. Every float moves from one float array to another, so
   nothing is boxed on the way. *)
let[@hot] scatter rings ~time ~a ~b ~c ~v n =
  for i = 0 to n - 1 do
    let ring = rings.(Array.unsafe_get c i) in
    let tail = Ring.tail_for_push ring in
    let j = tail land ring.Ring.mask in
    Array.unsafe_set ring.Ring.time j (Array.unsafe_get time i);
    Array.unsafe_set ring.Ring.a j (Array.unsafe_get a i);
    Array.unsafe_set ring.Ring.b j (Array.unsafe_get b i);
    Array.unsafe_set ring.Ring.c j (Array.unsafe_get c i);
    Array.unsafe_set ring.Ring.v j (Array.unsafe_get v i);
    ring.Ring.tail <- tail + 1
  done

(* The in-lane merge: repeatedly take the smallest head record across
   [rings] by (time, b), ties to the lowest ring index (strict <), and
   pop it into the columns. With one FIFO ring per constant-delay path,
   each ring is already in arrival order, so this reconstructs the
   lane's true arrival order; ordering equal times by [b] (the sequence
   number) is what keeps a flow's observation order independent of how
   flows share lanes. *)
let[@hot] drain_into rings ~upto ~time ~a ~b ~c ~v =
  let n =
    Int.min
      (Int.min (Array.length time) (Array.length v))
      (Int.min (Array.length a) (Int.min (Array.length b) (Array.length c)))
  in
  let k = ref 0 in
  let more = ref true in
  while !more && !k < n do
    let best = ref (-1) in
    let best_t = ref infinity in
    let best_b = ref max_int in
    for r = 0 to Array.length rings - 1 do
      let ring = Array.unsafe_get rings r in
      let head = ring.Ring.head in
      if ring.Ring.tail <> head then begin
        let i = head land ring.Ring.mask in
        let tp = Array.unsafe_get ring.Ring.time i in
        (* Inline float tests, not Float.compare's C call: the times
           are finite, which is the caller's contract. *)
        if tp < !best_t || (tp = !best_t && Array.unsafe_get ring.Ring.b i < !best_b)
        then begin
          best := r;
          best_t := tp;
          best_b := Array.unsafe_get ring.Ring.b i
        end
      end
    done;
    if !best < 0 || !best_t > upto then more := false
    else begin
      let ring = Array.unsafe_get rings !best in
      let head = ring.Ring.head in
      let i = head land ring.Ring.mask in
      let j = !k in
      Array.unsafe_set time j (Array.unsafe_get ring.Ring.time i);
      Array.unsafe_set a j (Array.unsafe_get ring.Ring.a i);
      Array.unsafe_set b j !best_b;
      Array.unsafe_set c j (Array.unsafe_get ring.Ring.c i);
      Array.unsafe_set v j (Array.unsafe_get ring.Ring.v i);
      ring.Ring.head <- head + 1;
      k := j + 1
    end
  done;
  !k

(* Drain [rings] in (time, ring-index, ring-position) order: repeatedly
   pop the globally smallest head record, scanning rings ascending with
   a strict < so ties resolve to the lowest index; within one ring, its
   own order is preserved by construction. *)
let merge rings ~consume =
  let lanes = Array.length rings in
  let r = scratch () in
  let continue = ref true in
  while !continue do
    let best_lane = ref (-1) in
    let best_time = ref infinity in
    for lane = 0 to lanes - 1 do
      if not (Ring.is_empty rings.(lane)) then begin
        let t = Ring.peek_time rings.(lane) in
        if t < !best_time then begin
          best_time := t;
          best_lane := lane
        end
      end
    done;
    if !best_lane < 0 then continue := false
    else begin
      pop_into rings.(!best_lane) r;
      consume ~lane:!best_lane r
    end
  done

(* Run [f], returning what it raised instead of raising it. *)
let outcome f =
  match f () with
  | () -> None
  | exception e -> Some (e, Printexc.get_raw_backtrace ())

let run ~lanes ~lane =
  if lanes <= 0 then invalid_arg "Shard.run: non-positive lane count";
  (* Lanes 1.. get a domain each; lane 0 runs here, on the caller's. *)
  let spawned = ref [] in
  let failed =
    outcome (fun () ->
        for l = 1 to lanes - 1 do
          spawned := Domain.spawn (fun () -> lane ~lane:l) :: !spawned
        done;
        lane ~lane:0)
  in
  (* Quiesce point: joining every lane establishes happens-before for
     all lane-local state, so whatever the caller reads afterwards is
     fully published. Every spawned lane is joined even when another
     lane raised; the first failure (the caller's own lane first, then
     by lane id) is re-raised after. *)
  let joined = List.rev_map (fun d -> outcome (fun () -> Domain.join d)) !spawned in
  match List.find_map Fun.id (failed :: joined) with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()
