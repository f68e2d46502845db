module Topology = Tango_topo.Topology
module Vultr = Tango_topo.Vultr
module Link = Tango_topo.Link
module Network = Tango_bgp.Network
module Prefix = Tango_net.Prefix

type route = Direct | Relay of int list

type plan = {
  src : int;
  dst : int;
  route : route;
  owd_ms : float;
  direct_ms : float;
}

(* What relaying through an intermediate PoP adds: its decap and
   re-encap. *)
let relay_overhead_ms = 0.1

let plan_routes ~owd_ms ~sites () =
  if sites < 2 then invalid_arg "Overlay.plan_routes: need at least two sites";
  let all = List.init sites Fun.id in
  let pairs =
    List.concat_map (fun s -> List.filter_map (fun d -> if s = d then None else Some (s, d)) all) all
  in
  List.map
    (fun (src, dst) ->
      let direct = owd_ms ~src ~dst in
      let best = ref (direct, Direct) in
      let consider owd route = if owd < fst !best then best := (owd, route) in
      List.iter
        (fun r ->
          if r <> src && r <> dst then begin
            let one_hop = owd_ms ~src ~dst:r +. owd_ms ~src:r ~dst +. relay_overhead_ms in
            consider one_hop (Relay [ r ])
          end)
        all;
      let owd, route = !best in
      { src; dst; route; owd_ms = owd; direct_ms = direct })
    pairs

let gain_ms plan =
  if Float.equal plan.direct_ms infinity && plan.owd_ms < infinity then infinity
  else Float.max 0.0 (plan.direct_ms -. plan.owd_ms)

module Triangle = struct
  let vultr_chi = 3

  let server_chi = 13

  let eastnet = 7018

  let slownet = 6453

  let build () =
    let t = Vultr.build () in
    Topology.add_node t ~id:vultr_chi ~asn:Vultr.vultr_asn "Vultr-CHI";
    Topology.add_node t ~id:server_chi ~asn:64514 ~private_asn:true "Tango-CHI";
    Topology.add_node t ~id:eastnet ~asn:eastnet "EastNet";
    Topology.add_node t ~id:slownet ~asn:slownet "SlowNet";
    Topology.connect t ~provider:vultr_chi ~customer:server_chi
      ~link:(Link.v ~jitter_ms:0.005 0.2) ();
    (* EastNet: a regional network reaching only CHI and NY — fast. *)
    Topology.connect t ~provider:eastnet ~customer:vultr_chi
      ~link:(Link.v ~jitter_ms:0.01 5.0) ();
    Topology.connect t ~provider:eastnet ~customer:Vultr.vultr_ny
      ~link:(Link.v ~jitter_ms:0.01 5.0) ();
    (* SlowNet: the only direct CHI–LA transit — long detour. *)
    Topology.connect t ~provider:slownet ~customer:vultr_chi
      ~link:(Link.v ~jitter_ms:0.05 30.0) ();
    Topology.connect t ~provider:slownet ~customer:Vultr.vultr_la
      ~link:(Link.v ~jitter_ms:0.05 30.0) ();
    t

  (* Site indices in the shared address block. *)
  let site_of_server node =
    if node = Vultr.server_la then 0
    else if node = Vultr.server_ny then 1
    else if node = server_chi then 2
    else invalid_arg (Printf.sprintf "Overlay.Triangle: node %d is not a server" node)

  let host_prefix ~site =
    (Addressing.carve ~block:Addressing.default_block ~site_index:site ~path_count:0)
      .Addressing.host_prefix

  let announce_hosts net =
    List.iter
      (fun node ->
        Network.announce net ~node (host_prefix ~site:(site_of_server node)) ())
      [ Vultr.server_la; Vultr.server_ny; server_chi ];
    ignore (Network.converge net)

  let static_owd_ms net ~src ~dst =
    let topo = Network.topology net in
    let addr = Prefix.nth_address (host_prefix ~site:(site_of_server dst)) 0x11L in
    match Network.forwarding_path net ~from_node:src addr with
    | None -> infinity
    | Some nodes ->
        let rec sum = function
          | a :: (b :: _ as rest) -> (
              match Topology.link topo a b with
              | Some l -> l.Link.delay_ms +. sum rest
              | None -> infinity)
          | [ _ ] | [] -> 0.0
        in
        sum nodes
end

(* Silence the unused-value warning for vultr_chi in Triangle: exposed
   implicitly through the topology. *)
let _ = Triangle.vultr_chi
