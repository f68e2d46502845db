type t = { offset_ns : int64 }

let create ?(offset_ns = 0L) () = { offset_ns }

let now_ns t ~sim_time_s = Int64.add (Int64.of_float (sim_time_s *. 1e9)) t.offset_ns

(* [now_ns]'s arithmetic inline, so its int64 is never boxed. *)
let owd_ms t ~now_s ~stamp_ns =
  Int64.to_float (Int64.sub (Int64.add (Int64.of_float (now_s *. 1e9)) t.offset_ns) stamp_ns)
  /. 1e6

let owd_ms_into t ~stamp_ns arrival_s ~into n =
  let off = Int64.to_int t.offset_ns in
  for i = 0 to n - 1 do
    let now_ns =
      Int64.to_int (Int64.of_float (Array.unsafe_get arrival_s i *. 1e9)) + off
    in
    Array.unsafe_set into i (float_of_int (now_ns - stamp_ns) /. 1e6)
  done

let step t ~step_ns =
  { offset_ns = Int64.add t.offset_ns step_ns }
