module Engine = Tango_sim.Engine
module Stats = Tango_sim.Stats
module Network = Tango_bgp.Network
module Vultr = Tango_topo.Vultr
module Fabric = Tango_dataplane.Fabric
module Prefix = Tango_net.Prefix
module Series = Tango_telemetry.Series

type site = { name : string; node : int; host_prefix : Prefix.t }

type t = {
  engine : Engine.t;
  net : Network.t;
  fabric : Fabric.t;
  site_list : site array;
  pops : (int * int, Pop.t) Hashtbl.t;
  discovered : (int * int, Discovery.path list) Hashtbl.t;
  routes : (int * int, Overlay.route) Hashtbl.t;
}

let fabric t = t.fabric

let sites t = Array.length t.site_list

let site_name t i = t.site_list.(i).name

let check_pair t src dst =
  let n = sites t in
  if src < 0 || src >= n || dst < 0 || dst >= n || src = dst then
    invalid_arg (Printf.sprintf "Mesh: invalid site pair (%d,%d)" src dst)

let paths t ~src ~dst =
  check_pair t src dst;
  Hashtbl.find t.discovered (src, dst)

(* Per-pair tunnel slices live above the per-site slices in the shared
   block: slice 32 + src*N + dst holds the prefixes site [dst] announces
   for traffic from [src]. *)
let pair_slice ~site_count ~src ~dst = 32 + (src * site_count) + dst

let policy = Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 1.0 }

let setup_triangle ?(seed = 11) () =
  let topo = Overlay.Triangle.build () in
  let engine = Engine.create ~seed () in
  let net = Network.create ~configure:Pair.vultr_overrides topo engine in
  let block = Addressing.default_block in
  let site_list =
    [|
      { name = "LA"; node = Vultr.server_la;
        host_prefix = (Addressing.carve ~block ~site_index:0 ~path_count:0).Addressing.host_prefix };
      { name = "NY"; node = Vultr.server_ny;
        host_prefix = (Addressing.carve ~block ~site_index:1 ~path_count:0).Addressing.host_prefix };
      { name = "CHI"; node = Overlay.Triangle.server_chi;
        host_prefix = (Addressing.carve ~block ~site_index:2 ~path_count:0).Addressing.host_prefix };
    |]
  in
  let n = Array.length site_list in
  let discovered = Hashtbl.create 8 in
  let probe = Prefix.subnet block 16 (16 * 101) in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let result =
          Discovery.run ~net ~origin:site_list.(dst).node
            ~observer:site_list.(src).node ~probe_prefix:probe ()
        in
        Hashtbl.replace discovered (src, dst) result.Discovery.paths
      end
    done
  done;
  (* Announce one host prefix per site, then the per-pair tunnel
     prefixes from each destination with the discovered communities. *)
  Array.iter
    (fun s -> Network.announce net ~node:s.node s.host_prefix ())
    site_list;
  let tunnel_prefixes ~src ~dst =
    let slice = pair_slice ~site_count:n ~src ~dst in
    let count = List.length (Hashtbl.find discovered (src, dst)) in
    List.init count (fun i -> Prefix.subnet block 16 ((16 * slice) + 1 + i))
  in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        List.iteri
          (fun i prefix ->
            let path = List.nth (Hashtbl.find discovered (src, dst)) i in
            Network.announce net ~node:site_list.(dst).node prefix
              ~communities:path.Discovery.communities ())
          (tunnel_prefixes ~src ~dst)
    done
  done;
  ignore (Network.converge net);
  let fabric = Fabric.create ~seed:(seed + 1) net in
  let pops = Hashtbl.create 8 in
  (* The paper's footnote 1: with more than one sending/receiving
     switch, comparing measurements across different ingress/egress
     points requires relative clock synchronization — a constant offset
     no longer cancels when summing segments of different pairs. The
     mesh therefore assumes synchronized site clocks (offset 0); the
     pairwise deployments in {!Pair} keep their deliberate skew. *)
  let clock_offsets = [| 0L; 0L; 0L |] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let plan =
          {
            Addressing.site_index = src;
            host_prefix = site_list.(src).host_prefix;
            tunnel_prefixes = tunnel_prefixes ~src:dst ~dst:src;
          }
        in
        let remote_plan =
          {
            Addressing.site_index = dst;
            host_prefix = site_list.(dst).host_prefix;
            tunnel_prefixes = tunnel_prefixes ~src ~dst;
          }
        in
        let p =
          Pop.create
            ~name:(Printf.sprintf "%s->%s" site_list.(src).name site_list.(dst).name)
            ~node:site_list.(src).node ~fabric
            ~clock_offset_ns:clock_offsets.(src mod Array.length clock_offsets)
            ~plan ~remote_plan
            ~outbound_paths:(Hashtbl.find discovered (src, dst))
            ~policy ()
        in
        Hashtbl.replace pops (src, dst) p
      end
    done
  done;
  for src = 0 to n - 1 do
    for dst = src + 1 to n - 1 do
      Pop.wire ~a:(Hashtbl.find pops (src, dst)) ~b:(Hashtbl.find pops (dst, src))
    done
  done;
  let t =
    {
      engine;
      net;
      fabric;
      site_list;
      pops;
      discovered;
      routes = Hashtbl.create 8;
    }
  in
  (* Relaying: any packet a site receives for a foreign host prefix is
     re-encapsulated onto that site's best path toward the final site. *)
  for here = 0 to n - 1 do
    let handler ~now:_ (packet : Tango_net.Packet.t) =
      let dst_addr = packet.Tango_net.Packet.flow.Tango_net.Flow.dst in
      let target = ref None in
      Array.iteri
        (fun i s -> if Prefix.mem s.host_prefix dst_addr then target := Some i)
        t.site_list;
      match !target with
      | Some final when final <> here ->
          Pop.forward_transit (Hashtbl.find t.pops (here, final)) packet
      | Some _ | None -> ()
    in
    for other = 0 to n - 1 do
      if other <> here then
        Pop.set_transit_handler (Hashtbl.find pops (here, other)) handler
    done
  done;
  (* Until planned otherwise, everything goes direct. *)
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then Hashtbl.replace t.routes (src, dst) Overlay.Direct
    done
  done;
  t

(* Pop iteration in sorted key order: probe scheduling and stats
   accumulation must not inherit Hashtbl hash order. *)
let sorted_pop_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.pops []
  |> List.sort (fun (a1, a2) (b1, b2) ->
         match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)

let start_measurement t ~for_s () =
  let until_s = Engine.now t.engine +. for_s in
  List.iter (fun k -> Pop.start (Hashtbl.find t.pops k) ~until_s ()) (sorted_pop_keys t)

let run_for t duration = Engine.run ~until:(Engine.now t.engine +. duration) t.engine

(* Measurements older than this are not trusted for overlay planning: a
   blackholed segment stops producing samples entirely, and its last
   EWMA would otherwise advertise a healthy delay forever. *)
let max_segment_staleness_s = 3.0

let measured_owd_ms t ~src ~dst =
  check_pair t src dst;
  let stats = Pop.outbound_stats (Hashtbl.find t.pops (src, dst)) in
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
      (Hashtbl.find t.discovered (src, dst))

let plan_routes t =
  let plans =
    Overlay.plan_routes
      ~owd_ms:(fun ~src ~dst -> measured_owd_ms t ~src ~dst)
      ~sites:(sites t) ()
  in
  List.iter
    (fun (p : Overlay.plan) ->
      Hashtbl.replace t.routes (p.Overlay.src, p.Overlay.dst) p.Overlay.route)
    plans

let route t ~src ~dst =
  check_pair t src dst;
  Hashtbl.find t.routes (src, dst)

let send_app t ~src ~dst () =
  check_pair t src dst;
  match route t ~src ~dst with
  | Overlay.Direct -> ignore (Pop.send_app (Hashtbl.find t.pops (src, dst)) ())
  | Overlay.Relay (first :: _) ->
      let final_dst = Prefix.nth_address t.site_list.(dst).host_prefix 0x11L in
      ignore
        (Pop.send_app (Hashtbl.find t.pops (src, first)) ~final_dst ())
  | Overlay.Relay [] -> assert false

let fold_site_pops t ~site ~init ~f =
  List.fold_left
    (fun acc ((src, _) as k) ->
      if src = site then f acc (Hashtbl.find t.pops k) else acc)
    init (sorted_pop_keys t)

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
