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
  let mesh = Mesh.setup_triangle () in
  let name = Mesh.site_name mesh in
  let best ~src ~dst =
    List.fold_left
      (fun acc (p : Discovery.path) -> Float.min acc p.Discovery.floor_owd_ms)
      infinity (Mesh.paths mesh ~src ~dst)
  in
  for s = 0 to 2 do
    for d = 0 to 2 do
      if s <> d then begin
        let paths = Mesh.paths mesh ~src:s ~dst:d in
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
  Mesh.start_measurement mesh ~for_s:10.0 ();
  Mesh.run_for mesh 5.0;
  Mesh.plan_routes mesh;
  for _ = 1 to 200 do
    Mesh.send_app mesh ~src:2 ~dst:0 ()
  done;
  Mesh.run_for mesh 6.0;
  let lat = Mesh.app_latency_at mesh ~site:0 in
  Printf.printf
    "  delivered %d/200 at LA, relayed through NY: %d, p50 end-to-end %.1f ms\n"
    (Mesh.app_received_at mesh ~site:0)
    (Mesh.transited_at mesh ~site:1)
    (lat.Tango_sim.Stats.p50 *. 1000.0);
  Printf.printf "  (the direct CHI->LA transit would take %.1f ms)\n"
    (best ~src:2 ~dst:0)
