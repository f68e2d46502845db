module Fabric = Tango_dataplane.Fabric
module Engine = Tango_sim.Engine
module Packet = Tango_net.Packet
module Flow = Tango_net.Flow

type lane = { offset_ms : float; flows : int }

type t = { lanes : lane list; spread_ms : float }

let cluster ~tolerance_ms values =
  if tolerance_ms <= 0.0 then invalid_arg "Ecmp_map.cluster: non-positive tolerance";
  let sorted = List.sort Float.compare values in
  let flush sum n acc = if n = 0 then acc else (sum /. float_of_int n, n) :: acc in
  let rec go sum n acc = function
    | [] -> List.rev (flush sum n acc)
    | v :: rest ->
        if n = 0 then go v 1 acc rest
        else begin
          let mean = sum /. float_of_int n in
          if v -. mean <= tolerance_ms then go (sum +. v) (n + 1) acc rest
          else go v 1 (flush sum n acc) rest
        end
  in
  go 0.0 0 [] sorted

let infer ~tolerance_ms floors =
  if List.is_empty floors then invalid_arg "Ecmp_map.infer: no observations";
  let clusters = cluster ~tolerance_ms (List.map snd floors) in
  let fastest = match clusters with (m, _) :: _ -> m | [] -> assert false in
  let lanes =
    List.map (fun (mean, n) -> { offset_ms = mean -. fastest; flows = n }) clusters
  in
  let spread_ms =
    match List.rev lanes with l :: _ -> l.offset_ms | [] -> 0.0
  in
  { lanes; spread_ms }

(* Spacing between consecutive probes, and the clustering tolerance
   that separates two lanes' floors. *)
let interval_s = 0.002

let tolerance_ms = 0.5

let probe ~fabric ~from_node ~src ~dst ?(flows = 64) ?(probes_per_flow = 10) () =
  if flows <= 0 || probes_per_flow <= 0 then
    invalid_arg "Ecmp_map.probe: need positive flow/probe counts";
  let engine = Tango_bgp.Network.engine (Fabric.network fabric) in
  let floors = Hashtbl.create flows in
  for i = 0 to (flows * probes_per_flow) - 1 do
    let flow_id = i mod flows in
    Engine.schedule engine ~delay:(float_of_int i *. interval_s) (fun e ->
        let sent_at = Engine.now e in
        let flow =
          Flow.v ~src ~dst ~proto:17 ~src_port:(41_000 + flow_id) ~dst_port:7
        in
        let packet = Packet.create ~id:i ~flow ~payload_bytes:64 ~created_at:sent_at () in
        Fabric.send fabric ~from_node
          ~on_delivered:(fun ~node:_ _ ->
            let owd_ms = (Engine.now e -. sent_at) *. 1000.0 in
            let current =
              Option.value ~default:infinity (Hashtbl.find_opt floors flow_id)
            in
            Hashtbl.replace floors flow_id (Float.min current owd_ms))
          packet)
  done;
  Engine.run engine;
  infer ~tolerance_ms
    (Hashtbl.fold (fun id v acc -> (id, v) :: acc) floors []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b))
