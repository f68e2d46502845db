module Vultr = Tango_topo.Vultr
module Prefix = Tango_net.Prefix
module Stats = Tango_sim.Stats
module Series = Tango_telemetry.Series

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

(* ------------------------------------------------------------------ *)
(* The live triangle                                                   *)

type t = { pair : Pair.t; routes : route array array }

let sites = 3

let names = [| "LA"; "NY"; "CHI" |]

let pair t = t.pair

let site_name i = names.(i)

let host_prefix t site = (Pair.plan t.pair ~site).Addressing.host_prefix

let setup_triangle ?seed () =
  let site node = { Pair.node; policy = Pair.default_policy; clock_offset_ns = 0L } in
  let pair =
    Pair.setup ?seed ~configure:Pair.vultr_overrides
      ~topo:(Vultr.build_triangle ())
      [| site Vultr.server_la; site Vultr.server_ny; site Vultr.server_chi |]
  in
  let t = { pair; routes = Array.make_matrix sites sites Direct } in
  (* Relaying: any packet a site receives for a foreign host prefix is
     re-encapsulated onto that site's best path toward the final site. *)
  for here = 0 to sites - 1 do
    let handler ~now:_ (packet : Tango_net.Packet.t) =
      let dst_addr = packet.Tango_net.Packet.flow.Tango_net.Flow.dst in
      let target = ref None in
      for i = 0 to sites - 1 do
        if Prefix.mem (host_prefix t i) dst_addr then target := Some i
      done;
      match !target with
      | Some final when final <> here ->
          Pop.forward_transit (Pair.pop pair ~src:here ~dst:final) packet
      | Some _ | None -> ()
    in
    for other = 0 to sites - 1 do
      if other <> here then
        Pop.set_transit_handler (Pair.pop pair ~src:here ~dst:other) handler
    done
  done;
  t

(* Measurements older than this are not trusted for overlay planning: a
   blackholed segment stops producing samples entirely, and its last
   EWMA would otherwise advertise a healthy delay forever. *)
let max_segment_staleness_s = 3.0

let measured_owd_ms t ~src ~dst =
  let stats = Pop.outbound_stats (Pair.pop t.pair ~src ~dst) in
  let any_measured = ref false in
  let best =
    Array.fold_left
      (fun acc (s : Policy.path_stats) ->
        if s.Policy.samples > 0 && not (Float.is_nan s.Policy.owd_ewma_ms) then begin
          any_measured := true;
          if s.Policy.age_s <= max_segment_staleness_s then
            Float.min acc s.Policy.owd_ewma_ms
          else acc
        end
        else acc)
      infinity stats
  in
  if best < infinity then best
  else if !any_measured then
    (* Measurements existed but every path's are stale: the segment is
       effectively down right now. *)
    infinity
  else
    List.fold_left
      (fun acc (p : Discovery.path) -> Float.min acc p.Discovery.floor_owd_ms)
      infinity
      (Pair.paths t.pair ~src ~dst)

let replan t =
  List.iter
    (fun p -> t.routes.(p.src).(p.dst) <- p.route)
    (plan_routes ~owd_ms:(fun ~src ~dst -> measured_owd_ms t ~src ~dst) ~sites ())

let route t ~src ~dst =
  if src < 0 || src >= sites || dst < 0 || dst >= sites || src = dst then
    invalid_arg (Printf.sprintf "Overlay.route: invalid site pair (%d,%d)" src dst);
  t.routes.(src).(dst)

let send_app t ~src ~dst () =
  match route t ~src ~dst with
  | Direct -> ignore (Pop.send_app (Pair.pop t.pair ~src ~dst) ())
  | Relay (first :: _) ->
      let final_dst = Prefix.nth_address (host_prefix t dst) 0x11L in
      ignore (Pop.send_app (Pair.pop t.pair ~src ~dst:first) ~final_dst ())
  | Relay [] -> assert false

(* A site's PoPs, in peer order: stats accumulate in a fixed order. *)
let fold_site_pops t ~site ~init ~f =
  let acc = ref init in
  for dst = 0 to sites - 1 do
    if dst <> site then acc := f !acc (Pair.pop t.pair ~src:site ~dst)
  done;
  !acc

let app_received_at t ~site =
  fold_site_pops t ~site ~init:0 ~f:(fun acc p -> acc + Pop.app_received p)

let app_latency_at t ~site =
  let stats = Stats.create () in
  fold_site_pops t ~site ~init:() ~f:(fun () p ->
      Series.iter (Pop.app_latency_series p) (fun ~time:_ ~value ->
          Stats.add stats value));
  Stats.summarize stats

let transited_at t ~site =
  fold_site_pops t ~site ~init:0 ~f:(fun acc p -> acc + Pop.transited p)
