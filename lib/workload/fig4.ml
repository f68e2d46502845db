module Vultr = Tango_topo.Vultr
module Rng = Tango_sim.Rng

(* The eight processes sit in parallel arrays keyed by directed link
   and are found by a linear scan, once per link when a fabric is
   built ({!process_for}). *)
type t = {
  link_from : int array;
  link_to : int array;
  processes : Delay_process.t array;
  route_change : float * float;
  instability : float * float;
}

(* Fig. 4's westbound GTT events: a +5 ms level shift, and spikes
   peaking 50 ms above the 28 ms floor. *)
let route_change_magnitude_ms = 5.0

let instability_peak_extra_ms = 50.0

let create ?(seed = 77) ?(horizon_s = 600.0) () =
  if horizon_s <= 0.0 then invalid_arg "Fig4.create: non-positive horizon";
  let rng = Rng.create ~seed in
  let registered = ref [] in
  let fresh_seed () = Int64.to_int (Rng.bits64 rng) land 0x3FFFFFFF in
  let register ~transit ~toward process =
    registered := (transit, toward, process) :: !registered
  in
  let rc_start = 0.40 *. horizon_s and rc_stop = 0.60 *. horizon_s in
  let inst_start = 0.70 *. horizon_s and inst_stop = 0.80 *. horizon_s in
  let gtt_events =
    let event_rng = Rng.create ~seed:(fresh_seed ()) in
    [
      Delay_process.make_route_change ~rng:event_rng ~start_s:rc_start
        ~duration_s:(rc_stop -. rc_start) ~magnitude_ms:route_change_magnitude_ms ();
      Delay_process.make_instability ~rng:event_rng ~start_s:inst_start
        ~duration_s:(inst_stop -. inst_start) ~rate_hz:0.5
        ~max_magnitude_ms:instability_peak_extra_ms ();
    ]
  in
  (* Westbound: the direction plotted in Fig. 4 (NY -> LA). Each noisy
     process sits on a positive base so its noise is never clamped. *)
  register ~transit:Vultr.gtt ~toward:Vultr.vultr_la
    (Delay_process.create ~seed:(fresh_seed ()) ~base_ms:0.1 ~white_std_ms:0.01
       ~ou_std_ms:0.02 ~ou_tau_s:15.0 ~events:gtt_events ());
  register ~transit:Vultr.ntt ~toward:Vultr.vultr_la
    (Delay_process.create ~seed:(fresh_seed ()) ~base_ms:0.8
       ~diurnal_amplitude_ms:0.6 ~diurnal_period_s:horizon_s ~white_std_ms:0.05
       ~ou_std_ms:0.15 ~ou_tau_s:20.0 ());
  register ~transit:Vultr.telia ~toward:Vultr.vultr_la
    (Delay_process.create ~seed:(fresh_seed ()) ~base_ms:1.5 ~white_std_ms:0.30
       ~ou_std_ms:0.10 ~ou_tau_s:8.0 ());
  register ~transit:Vultr.level3 ~toward:Vultr.vultr_la
    (Delay_process.create ~seed:(fresh_seed ()) ~base_ms:0.6
       ~diurnal_amplitude_ms:0.3 ~diurnal_period_s:(horizon_s /. 2.0)
       ~white_std_ms:0.12 ~ou_std_ms:0.10 ());
  (* Eastbound: LA -> NY, the direction whose jitter §5 quotes. *)
  register ~transit:Vultr.gtt ~toward:Vultr.vultr_ny
    (Delay_process.create ~seed:(fresh_seed ()) ~base_ms:0.1 ~white_std_ms:0.004
       ~ou_std_ms:0.01 ~ou_tau_s:15.0 ());
  register ~transit:Vultr.ntt ~toward:Vultr.vultr_ny
    (Delay_process.create ~seed:(fresh_seed ()) ~base_ms:0.8
       ~diurnal_amplitude_ms:0.5 ~diurnal_period_s:horizon_s ~white_std_ms:0.08
       ~ou_std_ms:0.12 ());
  register ~transit:Vultr.telia ~toward:Vultr.vultr_ny
    (Delay_process.create ~seed:(fresh_seed ()) ~base_ms:1.5 ~white_std_ms:0.33
       ~ou_std_ms:0.08 ~ou_tau_s:8.0 ());
  register ~transit:Vultr.cogent ~toward:Vultr.vultr_ny
    (Delay_process.create ~seed:(fresh_seed ()) ~base_ms:0.6 ~white_std_ms:0.10
       ~ou_std_ms:0.10 ());
  let registered = Array.of_list (List.rev !registered) in
  {
    link_from = Array.map (fun (transit, _, _) -> transit) registered;
    link_to = Array.map (fun (_, toward, _) -> toward) registered;
    processes = Array.map (fun (_, _, process) -> process) registered;
    route_change = (rc_start, rc_stop);
    instability = (inst_start, inst_stop);
  }

(* Index of the process on a directed link; -1 when it has none. *)
let rec find_link t ~from_node ~to_node i =
  if i >= Array.length t.link_from then -1
  else if t.link_from.(i) = from_node && t.link_to.(i) = to_node then i
  else find_link t ~from_node ~to_node (i + 1)

let route_change_window t = t.route_change

let instability_window t = t.instability

let process_for t ~transit ~toward =
  let i = find_link t ~from_node:transit ~to_node:toward 0 in
  if i < 0 then None else Some t.processes.(i)
