type t = {
  delay_ms : float;
  jitter_ms : float;
  bandwidth_mbps : float;
}

let v ?(jitter_ms = 0.02) ?(bandwidth_mbps = 10_000.0) delay_ms =
  if delay_ms < 0.0 then invalid_arg "Link.v: negative delay";
  if jitter_ms < 0.0 then invalid_arg "Link.v: negative jitter";
  if bandwidth_mbps <= 0.0 then invalid_arg "Link.v: non-positive bandwidth";
  { delay_ms; jitter_ms; bandwidth_mbps }

let default = v 1.0

let transmission_delay_ms t ~bytes =
  if bytes < 0 then invalid_arg "Link.transmission_delay_ms: negative size";
  float_of_int (bytes * 8) /. (t.bandwidth_mbps *. 1000.0)
