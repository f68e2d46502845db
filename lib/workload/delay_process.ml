module Rng = Tango_sim.Rng

type spike = { at_s : float; magnitude_ms : float; width_s : float }

type event =
  | Level_shift of {
      start_s : float;
      duration_s : float;
      magnitude_ms : float;
      onset : spike list;
    }
  | Instability of { start_s : float; duration_s : float; spikes : spike list }

(* Rectangular: a spike holds its magnitude for its whole width and ends
   abruptly. The sharp trailing edge matters — it is what reorders
   packets (a packet sent just after the edge overtakes one sent just
   before), producing the TCP head-of-line blocking §5 describes. *)
let spike_value s ~time_s =
  let dt = time_s -. s.at_s in
  if dt < 0.0 || dt >= s.width_s then 0.0 else s.magnitude_ms

(* How long each instability spike holds its magnitude. *)
let instability_width_s = 1.5

let make_instability ~rng ~start_s ~duration_s ~rate_hz ~max_magnitude_ms () =
  let width_s = instability_width_s in
  if duration_s <= 0.0 then invalid_arg "make_instability: non-positive duration";
  if rate_hz <= 0.0 then invalid_arg "make_instability: non-positive rate";
  let rec arrivals t acc =
    let t = t +. Rng.exponential rng ~rate:rate_hz in
    if t >= start_s +. duration_s then List.rev acc
    else begin
      let magnitude =
        Float.min max_magnitude_ms (Rng.pareto rng ~scale:(max_magnitude_ms /. 10.0) ~shape:1.2)
      in
      arrivals t ({ at_s = t; magnitude_ms = magnitude; width_s } :: acc)
    end
  in
  let spikes = arrivals start_s [] in
  (* Pin the headline: one spike in the middle reaches the cap. *)
  let cap_spike =
    { at_s = start_s +. (duration_s /. 2.0); magnitude_ms = max_magnitude_ms; width_s }
  in
  Instability { start_s; duration_s; spikes = cap_spike :: spikes }

let make_route_change ~rng ~start_s ~duration_s ~magnitude_ms () =
  (* A couple of brief excursions right around the change, as in Fig. 4
     (middle): instability, then the new level. *)
  let onset =
    List.init 3 (fun i ->
        {
          at_s = start_s -. 2.0 +. (1.5 *. float_of_int i) +. Rng.float rng 0.5;
          magnitude_ms = magnitude_ms *. (2.0 +. Rng.float rng 2.0);
          width_s = 1.0;
        })
  in
  Level_shift { start_s; duration_s; magnitude_ms; onset }

type t = {
  base_ms : float;
  diurnal_amplitude_ms : float;
  diurnal_period_s : float;
  ou_std_ms : float;
  ou_tau_s : float;
  white_std_ms : float;
  event_list : event list;
  rng : Rng.t;
  (* The noise state, in a float array rather than mutable fields: a
     float stored into this mixed record would be boxed, once per query
     on the per-hop path. *)
  noise : float array;  (* ou_state, last_time *)
}

let ou_ix = 0

let last_time_ix = 1

let create ~seed ?(base_ms = 0.0) ?(diurnal_amplitude_ms = 0.0)
    ?(diurnal_period_s = 86400.0) ?(ou_std_ms = 0.0)
    ?(ou_tau_s = 10.0) ?(white_std_ms = 0.0) ?(events = []) () =
  if diurnal_period_s <= 0.0 then invalid_arg "Delay_process: non-positive period";
  if ou_tau_s <= 0.0 then invalid_arg "Delay_process: non-positive tau";
  if base_ms < 0.0 then invalid_arg "Delay_process: negative base";
  {
    base_ms;
    diurnal_amplitude_ms;
    diurnal_period_s;
    ou_std_ms;
    ou_tau_s;
    white_std_ms;
    event_list = events;
    rng = Rng.create ~seed;
    noise = [| 0.0; neg_infinity |];
  }

(* Left folds over the event and spike lists as toplevel recursions:
   [value] runs once per hop, and a [List.fold_left] closure capturing
   [time_s] would be allocated on every call. *)
let rec sum_spikes acc spikes ~time_s =
  match spikes with
  | [] -> acc
  | s :: rest -> sum_spikes (acc +. spike_value s ~time_s) rest ~time_s

let rec max_spike acc spikes ~time_s =
  match spikes with
  | [] -> acc
  | s :: rest -> max_spike (Float.max acc (spike_value s ~time_s)) rest ~time_s

let event_value event ~time_s =
  match event with
  | Level_shift { start_s; duration_s; magnitude_ms; onset } ->
      let shift =
        if time_s >= start_s && time_s < start_s +. duration_s then magnitude_ms
        else 0.0
      in
      sum_spikes shift onset ~time_s
  | Instability { spikes; _ } ->
      (* Overlapping spikes do not stack; the worst one dominates, which
         keeps the calibrated peak exact. *)
      max_spike 0.0 spikes ~time_s

let rec sum_events acc events ~time_s =
  match events with
  | [] -> acc
  | e :: rest -> sum_events (acc +. event_value e ~time_s) rest ~time_s

let floor_value t ~time_s =
  (* A zero amplitude makes the term +0.0 whatever the sine: skip it. *)
  let diurnal =
    if Float.equal t.diurnal_amplitude_ms 0.0 then 0.0
    else
      t.diurnal_amplitude_ms
      *. (1.0 +. sin (2.0 *. Float.pi *. time_s /. t.diurnal_period_s))
      /. 2.0
  in
  sum_events (t.base_ms +. diurnal) t.event_list ~time_s

let advance_ou t ~time_s =
  if t.ou_std_ms > 0.0 then begin
    let last_time = t.noise.(last_time_ix) in
    let dt = if Float.equal last_time neg_infinity then 0.0 else time_s -. last_time in
    let decay = exp (-.dt /. t.ou_tau_s) in
    let innovation_std = t.ou_std_ms *. sqrt (1.0 -. (decay *. decay)) in
    t.noise.(ou_ix) <-
      (t.noise.(ou_ix) *. decay)
      +. (if innovation_std > 0.0 then Rng.gaussian t.rng ~mean:0.0 ~std:innovation_std else 0.0)
  end;
  t.noise.(last_time_ix) <- time_s

let value t ~time_s =
  if time_s < t.noise.(last_time_ix) then
    invalid_arg "Delay_process.value: time went backwards";
  advance_ou t ~time_s;
  let white =
    if t.white_std_ms > 0.0 then Rng.gaussian t.rng ~mean:0.0 ~std:t.white_std_ms
    else 0.0
  in
  Float.max 0.0 (floor_value t ~time_s +. t.noise.(ou_ix) +. white)
