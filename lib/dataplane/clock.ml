type t = { offset_ns : int64 }

let create ?(offset_ns = 0L) () = { offset_ns }

let now_ns t ~sim_time_s = Int64.add (Int64.of_float (sim_time_s *. 1e9)) t.offset_ns

let offset_ns t = t.offset_ns

let step t ~step_ns =
  { offset_ns = Int64.add t.offset_ns step_ns }
