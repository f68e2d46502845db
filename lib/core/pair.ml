module Engine = Tango_sim.Engine
module Network = Tango_bgp.Network
module Topology = Tango_topo.Topology
module Vultr = Tango_topo.Vultr
module Fabric = Tango_dataplane.Fabric
module Fig4 = Tango_workload.Fig4
module Delay_process = Tango_workload.Delay_process
module Prefix = Tango_net.Prefix

type site = { node : int; policy : Policy.spec; clock_offset_ns : int64 }

(* Ordered pairs (src, dst), src <> dst, are numbered in index order:
   src * (n - 1) + (dst, skipping src). Per-pair state lives in flat
   arrays under that number. *)
type t = {
  engine : Engine.t;
  net : Network.t;
  fabric : Fabric.t;
  plans : Addressing.plan array;
  pops : Pop.t array;
}

let pair_index ~sites ~src ~dst =
  if src < 0 || src >= sites || dst < 0 || dst >= sites || src = dst then
    invalid_arg (Printf.sprintf "Pair: invalid site pair (%d,%d)" src dst);
  (src * (sites - 1)) + if dst < src then dst else dst - 1

let index t ~src ~dst = pair_index ~sites:(Array.length t.plans) ~src ~dst

let vultr_overrides (node : Topology.node) =
  if node.Topology.id = Vultr.vultr_la || node.Topology.id = Vultr.vultr_ny then
    { Network.no_overrides with neighbor_weight = Some Vultr.vultr_neighbor_weight }
  else Network.no_overrides

let default_policy =
  Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 1.0 }

let setup ?(seed = 11) ?readmit_backoff_s ?extra_delay_ms
    ?(configure = fun _ -> Network.no_overrides) ~topo sites =
  let n = Array.length sites in
  if n < 2 then invalid_arg "Pair.setup: need at least two sites";
  let engine = Engine.create ~seed () in
  let net = Network.create ~configure topo engine in
  let block = Addressing.default_block in
  (* Scratch prefix for discovery probes, outside every site slice. *)
  let probe_prefix = Prefix.subnet block 16 (16 * 100) in
  let ix ~src ~dst = pair_index ~sites:n ~src ~dst in
  let paths = Array.make (n * (n - 1)) [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        paths.(ix ~src ~dst) <-
          (Discovery.run ~net ~origin:sites.(dst).node
             ~observer:sites.(src).node ~probe_prefix ())
            .Discovery.paths
    done
  done;
  (* Site i's tunnel prefixes: one per path of each peer's traffic to i,
     peers in index order. Each is listed with its peer and path. *)
  let inbound site =
    List.concat
      (List.init n (fun peer ->
           if peer = site then []
           else
             List.map (fun path -> (peer, path)) paths.(ix ~src:peer ~dst:site)))
  in
  let plans =
    Array.init n (fun site ->
        Addressing.carve ~block ~site_index:site
          ~path_count:(List.length (inbound site)))
  in
  for site = 0 to n - 1 do
    let node = sites.(site).node and plan = plans.(site) in
    Network.announce net ~node plan.Addressing.host_prefix ();
    List.iter2
      (fun prefix (_, (path : Discovery.path)) ->
        Network.announce net ~node prefix ~communities:path.Discovery.communities ())
      plan.Addressing.tunnel_prefixes (inbound site)
  done;
  ignore (Network.converge net);
  let fabric = Fabric.create ~seed:(seed + 1) ?extra_delay_ms net in
  (* The part of [site]'s slice that [peer]'s traffic targets. *)
  let pair_plan ~site ~peer =
    let plan = plans.(site) in
    {
      plan with
      Addressing.tunnel_prefixes =
        List.filter_map
          (fun (prefix, (p, _)) -> if p = peer then Some prefix else None)
          (List.combine plan.Addressing.tunnel_prefixes (inbound site));
    }
  in
  let pops = Array.make (n * (n - 1)) None in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        pops.(ix ~src ~dst) <-
          Some
            (Pop.create ~node:sites.(src).node ~fabric
               ~clock_offset_ns:sites.(src).clock_offset_ns ?readmit_backoff_s
               ~plan:(pair_plan ~site:src ~peer:dst)
               ~remote_plan:(pair_plan ~site:dst ~peer:src)
               ~outbound_paths:paths.(ix ~src ~dst)
               ~policy:sites.(src).policy ())
    done
  done;
  let pops = Array.map Option.get pops in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      Pop.wire ~a:pops.(ix ~src:a ~dst:b) ~b:pops.(ix ~src:b ~dst:a)
    done
  done;
  { engine; net; fabric; plans; pops }

let setup_vultr ?seed ?(policy_la = default_policy) ?(policy_ny = default_policy)
    ?readmit_backoff_s ?scenario ?(clock_offset_la_ns = 37_000_000L)
    ?(clock_offset_ny_ns = -12_000_000L) () =
  (* Each link's process, resolved once when the fabric is built. *)
  let extra_delay_ms =
    Option.map
      (fun scenario ~from_node ~to_node ->
        Option.map Delay_process.value
          (Fig4.process_for scenario ~transit:from_node ~toward:to_node))
      scenario
  in
  setup ?seed ?readmit_backoff_s ?extra_delay_ms ~configure:vultr_overrides
    ~topo:(Vultr.build ())
    [|
      { node = Vultr.server_la; policy = policy_la; clock_offset_ns = clock_offset_la_ns };
      { node = Vultr.server_ny; policy = policy_ny; clock_offset_ns = clock_offset_ny_ns };
    |]

let engine t = t.engine

let network t = t.net

let fabric t = t.fabric

let pop t ~src ~dst = t.pops.(index t ~src ~dst)

let paths t ~src ~dst = Pop.outbound_paths (pop t ~src ~dst)

let plan t ~site =
  if site < 0 || site >= Array.length t.plans then
    invalid_arg (Printf.sprintf "Pair.plan: no site %d" site);
  t.plans.(site)

let pop_la t = pop t ~src:0 ~dst:1

let pop_ny t = pop t ~src:1 ~dst:0

let paths_to_ny t = paths t ~src:0 ~dst:1

let paths_to_la t = paths t ~src:1 ~dst:0

let start_measurement t ?probe_interval_s ?report_interval_s ?dead_after_probes
    ~for_s () =
  (* Durations are relative to now: BGP bring-up and discovery already
     consumed virtual time. *)
  let until_s = Engine.now t.engine +. for_s in
  Array.iter
    (fun p ->
      Pop.start p ?probe_interval_s ?report_interval_s ?dead_after_probes
        ~until_s ())
    t.pops

let run_for t duration = Engine.run ~until:(Engine.now t.engine +. duration) t.engine

let drive t ?probe_interval_s ?dead_after_probes ?payload_bytes ~from
    ~interval_s ~for_s () =
  let t0 = Engine.now t.engine in
  start_measurement t ?probe_interval_s ?dead_after_probes ~for_s ();
  let sent = ref 0 in
  Tango_workload.Traffic.periodic t.engine ~interval_s ~until_s:(t0 +. for_s)
    (fun _ ->
      incr sent;
      ignore (Pop.send_app from ?payload_bytes ()));
  run_for t (for_s +. 1.0);
  !sent
