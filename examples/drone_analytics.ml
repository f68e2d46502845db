(* The paper's §2 motivating scenario: AS X runs real-time analytics on
   drone data in VMs inside cloud AS Y; occasional wide-area delay spikes
   break the adaptive control loop. With Tango, the drone traffic dodges
   the route change and instability episodes.

   We model the control loop with a latency deadline: a control update
   that takes more than 40 ms end-to-end (or is stalled behind a slow
   packet by TCP-style in-order delivery) is a missed tick.

   Run with: dune exec examples/drone_analytics.exe *)

open Tango
module Series = Tango_telemetry.Series
module Stats = Tango_sim.Stats

let deadline_s = 0.040

let run_with ~name ~policy =
  (* Fig. 4 dynamics, compressed onto 120 s: one GTT route change and
     one GTT instability window. Drone telemetry flows NY -> LA. *)
  let scenario = Tango_workload.Fig4.create ~horizon_s:120.0 () in
  let pair =
    Pair.setup_vultr ~seed:7 ~scenario ~policy_ny:policy ~clock_offset_la_ns:0L
      ~clock_offset_ny_ns:0L ()
  in
  let ny = Pair.pop_ny pair and la = Pair.pop_la pair in
  (* 50 Hz control updates, small payloads. *)
  ignore
    (Pair.drive pair ~probe_interval_s:0.02 ~payload_bytes:128 ~from:ny
       ~interval_s:0.02 ~for_s:120.0 ());
  let latency = Pop.app_latency_series la in
  let missed =
    Series.fold latency ~init:0 ~f:(fun acc ~time:_ ~value ->
        if value > deadline_s then acc + 1 else acc)
  in
  let stats = Series.stats latency in
  let hol = Stats.summarize (Pop.app_inorder_extra la) in
  Printf.printf
    "  %-22s mean %5.1f ms   p99 %5.1f ms   missed ticks %4d/%d   max HoL stall %5.1f ms\n"
    name
    (stats.Stats.mean *. 1000.0)
    (stats.Stats.p99 *. 1000.0)
    missed (Series.length latency)
    (hol.Stats.max *. 1000.0)

let () =
  print_endline "Drone analytics over the wide area (the paper's motivating app)";
  print_endline "===============================================================";
  Printf.printf "control-loop deadline: %.0f ms\n\n" (deadline_s *. 1000.0);
  run_with ~name:"status quo (BGP only)" ~policy:Policy.Bgp_default;
  run_with ~name:"pin fastest path" ~policy:(Policy.Static 2);
  run_with ~name:"Tango adaptive"
    ~policy:(Policy.Jitter_aware { beta = 5.0; hysteresis_ms = 1.0; min_dwell_s = 2.0 });
  print_endline "\nTango's live one-way measurements let the control traffic leave a";
  print_endline "path during its bad episodes and come back afterwards."
