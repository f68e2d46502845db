type lanes = float array

let uniform_lanes ~count ~spread_ms =
  if count < 1 then Err.invalid "Ecmp.uniform_lanes: need at least one lane";
  if spread_ms < 0.0 then Err.invalid "Ecmp.uniform_lanes: negative spread";
  Array.init count (fun i -> float_of_int i *. spread_ms)

let lane_of_hash lanes hash =
  let n = Array.length lanes in
  if n = 0 then Err.invalid "Ecmp.lane_delay_ms: no lanes";
  hash mod n

let lane_delay_ms lanes ~hash = lanes.(lane_of_hash lanes hash)
