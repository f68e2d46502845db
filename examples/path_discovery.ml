(* A walkthrough of the paper's §4.1 discovery procedure at the raw BGP
   level: announce, observe the AS path at the far end, attach a
   community suppressing the provider's export to the transit adjacent to
   the origin, wait for reconvergence, repeat — until the prefix becomes
   unreachable.

   This is the same loop `Tango.Discovery.run` automates; here every BGP
   step is spelled out so the mechanics are visible.

   Run with: dune exec examples/path_discovery.exe *)

module Engine = Tango_sim.Engine
module Network = Tango_bgp.Network
module Community = Tango_bgp.Community
module As_path = Tango_bgp.As_path
module Vultr = Tango_topo.Vultr
module Prefix = Tango_net.Prefix

let () =
  print_endline "Manual path discovery (the paper's three-step procedure)";
  print_endline "=========================================================";
  let topo = Vultr.build () in
  let engine = Engine.create () in
  let net = Network.create ~configure:Tango.Pair.vultr_overrides topo engine in
  let prefix = Prefix.of_string_exn "2001:db8:4063::/48" in

  (* Step 1: the NY server establishes its eBGP session and propagates an
     advertisement through Vultr (already wired into the topology); we
     originate the probe prefix there. *)
  Printf.printf "\nStep 1: NY server announces %s through Vultr (AS %d)\n"
    (Prefix.to_string prefix) Vultr.vultr_asn;

  (* Steps 2-3, iterated. *)
  let suppressed = ref [] in
  let stop = ref false in
  let iteration = ref 0 in
  while not !stop do
    incr iteration;
    let communities =
      Community.Set.of_list
        (List.map
           (fun asn -> Community.action_to_community (Community.No_export_to asn))
           !suppressed)
    in
    Network.announce net ~node:Vultr.server_ny prefix ~communities ();
    let elapsed = Network.converge net in
    Printf.printf "\nIteration %d (BGP reconverged in %.1fs virtual time)\n"
      !iteration elapsed;
    if !suppressed <> [] then
      Printf.printf "  communities attached: %s\n"
        (String.concat ", "
           (List.map
              (fun asn ->
                Community.to_string
                  (Community.action_to_community (Community.No_export_to asn)))
              !suppressed));
    match Network.as_path net ~node:Vultr.server_la prefix with
    | None ->
        Printf.printf "  LA server: prefix UNREACHABLE -> discovery complete\n";
        stop := true
    | Some path ->
        Printf.printf "  LA server observes AS path: [%s]\n" (As_path.to_string path);
        let transits =
          List.filter (fun a -> a <> Vultr.vultr_asn) (As_path.to_list path)
        in
        Printf.printf "  transit sequence: %s\n"
          (String.concat " -> " (List.map Vultr.transit_name transits));
        (match As_path.neighbor_of_origin path with
        | Some next when not (List.mem next !suppressed) ->
            Printf.printf
              "  next: tell Vultr NY not to export to %s (community %s)\n"
              (Vultr.transit_name next)
              (Community.to_string
                 (Community.action_to_community (Community.No_export_to next)));
            suppressed := !suppressed @ [ next ]
        | Some _ | None -> stop := true)
  done;
  Printf.printf
    "\n%d paths exposed between the two sites; each becomes a /48 + tunnel.\n"
    (!iteration - 1)
