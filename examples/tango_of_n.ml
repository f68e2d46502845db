(* §6's "From Tango of 2 to Tango of N": pairwise Tango deployments as
   the building blocks of a RON-like overlay. Three sites — LA, NY and a
   Chicago site whose only direct transit to LA takes a long detour —
   and the overlay planner decides where one-hop relaying pays off.

   Run with: dune exec examples/tango_of_n.exe *)

open Tango
module Engine = Tango_sim.Engine
module Network = Tango_bgp.Network
module Vultr = Tango_topo.Vultr
module Prefix = Tango_net.Prefix

let () =
  print_endline "Tango of N: relaying over pairwise deployments";
  print_endline "==============================================";
  let topo = Overlay.Triangle.build () in
  let engine = Engine.create () in
  let net = Network.create ~configure:Tango.Pair.vultr_overrides topo engine in
  Overlay.Triangle.announce_hosts net;
  let servers = [| Vultr.server_la; Vultr.server_ny; Overlay.Triangle.server_chi |] in
  let names = [| "LA"; "NY"; "CHI" |] in

  (* Every ordered pair runs full Tango discovery and keeps its best
     exposed path. *)
  let best = Array.make_matrix 3 3 infinity in
  for s = 0 to 2 do
    for d = 0 to 2 do
      if s <> d then begin
        let r =
          Discovery.run ~net ~origin:servers.(d) ~observer:servers.(s)
            ~probe_prefix:(Prefix.of_string_exn "2001:db8:4c00::/48")
            ()
        in
        Printf.printf "%s -> %s: %d paths exposed (%s)\n" names.(s) names.(d)
          (List.length r.Discovery.paths)
          (String.concat ", "
             (List.map (fun p -> p.Discovery.label) r.Discovery.paths));
        best.(s).(d) <-
          List.fold_left
            (fun acc (p : Discovery.path) -> Float.min acc p.Discovery.floor_owd_ms)
            infinity r.Discovery.paths
      end
    done
  done;

  print_endline "\nOverlay plan (one-hop relaying allowed):";
  let plans =
    Overlay.plan_routes ~owd_ms:(fun ~src ~dst -> best.(src).(dst)) ~sites:3 ()
  in
  List.iter
    (fun (p : Overlay.plan) ->
      let route =
        match p.Overlay.route with
        | Overlay.Direct -> "direct"
        | Overlay.Relay hops ->
            "via " ^ String.concat "," (List.map (fun i -> names.(i)) hops)
      in
      Printf.printf "  %-3s -> %-3s %-10s %6.1f ms  (saves %.1f ms)\n"
        names.(p.Overlay.src) names.(p.Overlay.dst) route p.Overlay.owd_ms
        (Overlay.gain_ms p))
    plans;

  (* And now live: a full three-site mesh with measurement, planning and
     actual relay forwarding in the data plane. *)
  print_endline "\nLive mesh (10 s of measurement, then 200 CHI->LA packets):";
  let mesh = Mesh.setup_triangle () in
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
  Printf.printf "  (the direct CHI->LA transit would take %.1f ms)\n" best.(2).(0)
