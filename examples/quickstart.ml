(* Quickstart: bring up a two-site Tango deployment (the paper's Vultr
   LA/NY prototype), discover the wide-area paths, measure them with live
   traffic for ten seconds, and route an application over the best one.

   Run with: dune exec examples/quickstart.exe *)

open Tango
module Series = Tango_telemetry.Series

let () =
  print_endline "Tango quickstart";
  print_endline "================";

  (* 1. One call performs BGP bring-up, Fig-3-style path discovery in
     both directions, per-path prefix announcements and tunnel setup. *)
  let pair = Pair.setup_vultr () in
  Printf.printf "\nDiscovered paths LA -> NY:\n";
  List.iter
    (fun (p : Discovery.path) ->
      Printf.printf "  path %d: %-7s (static floor %.1f ms)\n" p.Discovery.index
        p.Discovery.label p.Discovery.floor_owd_ms)
    (Pair.paths_to_ny pair);

  (* 2. Drive it for ten seconds: the measurement plane (10 ms probe
     trains on every path in both directions, plus the cooperative
     feedback reports) and application traffic from LA at 20 Hz. The
     default policy (lowest smoothed one-way delay with hysteresis)
     picks each packet's path. *)
  let la = Pair.pop_la pair in
  ignore (Pair.drive pair ~from:la ~interval_s:0.05 ~for_s:10.0 ());

  (* 3. Inspect what the receiving side measured, per path. *)
  let ny = Pair.pop_ny pair in
  Printf.printf "\nOne-way delay measured at NY (ms, clock-offset included):\n";
  Printf.printf "  %-8s %8s %8s %8s %10s\n" "path" "mean" "p99" "jitter" "samples";
  for path = 0 to Pop.path_count la - 1 do
    let s = Series.stats (Pop.inbound_owd_series ny ~path) in
    Printf.printf "  %-8s %8.2f %8.2f %8.4f %10d\n"
      (Pop.path_label la path) s.Tango_sim.Stats.mean s.Tango_sim.Stats.p99
      (Pop.inbound_jitter_ms ny ~path)
      s.Tango_sim.Stats.n
  done;

  let app = Series.stats (Pop.app_latency_series ny) in
  Printf.printf
    "\nApplication traffic: %d packets, median end-to-end latency %.1f ms\n"
    (Pop.app_received ny)
    (app.Tango_sim.Stats.p50 *. 1000.0);
  let settled =
    int_of_float (Option.value ~default:0.0 (Series.last_value (Pop.chosen_path_series la)))
  in
  Printf.printf "Policy settled on path %d (%s), switching %d time(s)\n" settled
    (Pop.path_label la settled)
    (Pop.policy_switches la)
