type t = { offset_ns : int64; drift_ppm : float }

let create ?(offset_ns = 0L) ?(drift_ppm = 0.0) () = { offset_ns; drift_ppm }

let now_ns t ~sim_time_s =
  let base = Int64.of_float (sim_time_s *. 1e9) in
  let drift = Int64.of_float (sim_time_s *. t.drift_ppm *. 1e3) in
  Int64.add (Int64.add base t.offset_ns) drift

let offset_ns t = t.offset_ns

let step t ~step_ns =
  { t with offset_ns = Int64.add t.offset_ns step_ns }
