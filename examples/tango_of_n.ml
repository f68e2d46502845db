(* §6's "From Tango of 2 to Tango of N": pairwise Tango deployments as
   the building blocks of a RON-like overlay. Three sites — LA, NY and a
   Chicago site whose only direct transit to LA takes a long detour —
   and the overlay planner decides where one-hop relaying pays off.

   Run with: dune exec examples/tango_of_n.exe *)

open Tango

let () =
  print_endline "Tango of N: relaying over pairwise deployments";
  print_endline "==============================================";
  (* The live three-site mesh: every ordered pair runs full Tango
     discovery, and each keeps its best exposed path. *)
  let overlay = Overlay.setup_triangle () in
  let pair = Overlay.pair overlay in
  let name = Overlay.site_name in
  let best ~src ~dst =
    List.fold_left
      (fun acc (p : Discovery.path) -> Float.min acc p.Discovery.floor_owd_ms)
      infinity (Pair.paths pair ~src ~dst)
  in
  for s = 0 to 2 do
    for d = 0 to 2 do
      if s <> d then begin
        let paths = Pair.paths pair ~src:s ~dst:d in
        Printf.printf "%s -> %s: %d paths exposed (%s)\n" (name s) (name d)
          (List.length paths)
          (String.concat ", " (List.map (fun p -> p.Discovery.label) paths))
      end
    done
  done;

  print_endline "\nOverlay plan (one-hop relaying allowed):";
  let plans = Overlay.plan_routes ~owd_ms:best ~sites:3 () in
  List.iter
    (fun (p : Overlay.plan) ->
      let route =
        match p.Overlay.route with
        | Overlay.Direct -> "direct"
        | Overlay.Relay hops -> "via " ^ String.concat "," (List.map name hops)
      in
      Printf.printf "  %-3s -> %-3s %-10s %6.1f ms  (saves %.1f ms)\n"
        (name p.Overlay.src) (name p.Overlay.dst) route p.Overlay.owd_ms
        (Overlay.gain_ms p))
    plans;

  (* And now live: measurement, planning and actual relay forwarding in
     the mesh's data plane. *)
  print_endline "\nLive mesh (10 s of measurement, then 200 CHI->LA packets):";
  Pair.start_measurement pair ~for_s:10.0 ();
  Pair.run_for pair 5.0;
  Overlay.replan overlay;
  for _ = 1 to 200 do
    Overlay.send_app overlay ~src:2 ~dst:0 ()
  done;
  Pair.run_for pair 6.0;
  let lat = Overlay.app_latency_at overlay ~site:0 in
  Printf.printf
    "  delivered %d/200 at LA, relayed through NY: %d, p50 end-to-end %.1f ms\n"
    (Overlay.app_received_at overlay ~site:0)
    (Overlay.transited_at overlay ~site:1)
    (lat.Tango_sim.Stats.p50 *. 1000.0);
  Printf.printf "  (the direct CHI->LA transit would take %.1f ms)\n"
    (best ~src:2 ~dst:0)
