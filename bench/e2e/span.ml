(* Wall-clock spans recorded by the benchmark around its calls into the
   library. Spans live in memory while a workload runs and are written
   out as JSON lines when it ends, so the clock reads are the only
   per-call cost of tracing.

   A span covers one layer over an interval: [start_ns]/[end_ns] bound
   it, [busy_ns] is the time actually spent inside the layer's calls
   (the interval itself for an enclosing span; the sum of the timed
   sections for a stage span, whose calls interleave with other
   stages'), and [calls] counts the timed sections. [parent] is the id
   of the enclosing span, -1 at the top. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) /. 1e9)

type span = {
  id : int;
  parent : int;
  name : string;
  gen : int;  (* lane generation, -1 outside the lane loop *)
  start_ns : int;
  mutable end_ns : int;
  mutable busy_ns : int;
  mutable calls : int;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

(* A finished span whose busy time was accumulated by the caller. *)
let add t ?parent ?(gen = -1) ~busy_ns ~calls name ~start_ns ~end_ns =
  let id = t.next in
  t.next <- id + 1;
  let parent = match parent with Some p -> p.id | None -> -1 in
  let s = { id; parent; name; gen; start_ns; end_ns; busy_ns; calls } in
  t.spans <- s :: t.spans;
  s

(* An open span; [finish] closes it. *)
let start t ?parent ?gen name =
  let now = now_ns () in
  add t ?parent ?gen ~busy_ns:0 ~calls:1 name ~start_ns:now ~end_ns:now

let finish s =
  s.end_ns <- now_ns ();
  s.busy_ns <- s.end_ns - s.start_ns

let seconds s = float_of_int s.busy_ns /. 1e9

(* Time [f ()] as one span. *)
let time t ?parent name f =
  let s = start t ?parent name in
  let r = f () in
  finish s;
  (r, s)

let write t oc ~workload =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"workload\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"gen\":%d,\"start_ns\":%d,\"end_ns\":%d,\"busy_ns\":%d,\"calls\":%d}\n"
        workload s.id s.parent s.name s.gen s.start_ns s.end_ns s.busy_ns s.calls)
    (List.rev t.spans)
