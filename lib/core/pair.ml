module Engine = Tango_sim.Engine
module Network = Tango_bgp.Network
module Topology = Tango_topo.Topology
module Vultr = Tango_topo.Vultr
module Fabric = Tango_dataplane.Fabric
module Fig4 = Tango_workload.Fig4
module Prefix = Tango_net.Prefix

type t = {
  engine : Engine.t;
  net : Network.t;
  fabric : Fabric.t;
  pop_la : Pop.t;
  pop_ny : Pop.t;
  (* Mutable so the reconciler can record re-discovered tables; the
     PoPs' installed tunnels are updated separately via
     {!Pop.install_outbound_paths}. *)
  mutable discovery_to_ny : Discovery.result;
  mutable discovery_to_la : Discovery.result;
}

let vultr_overrides (node : Topology.node) =
  if node.Topology.id = Vultr.vultr_la || node.Topology.id = Vultr.vultr_ny then
    { Network.no_overrides with neighbor_weight = Some Vultr.vultr_neighbor_weight }
  else Network.no_overrides

let default_policy =
  Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 1.0 }

let setup ?(seed = 11) ?(policy_a = default_policy) ?(policy_b = default_policy)
    ?readmit_backoff_s ?extra_delay_ms ?(clock_offset_a_ns = 0L)
    ?(clock_offset_b_ns = 0L) ?(configure = fun _ -> Network.no_overrides)
    ?(name_a = "A") ?(name_b = "B") ~topo ~server_a ~server_b () =
  let engine = Engine.create ~seed () in
  let net = Network.create ~configure topo engine in
  let block = Addressing.default_block in
  (* Scratch prefix for discovery probes, outside both site slices. *)
  let probe_prefix = Prefix.subnet block 16 (16 * 100) in
  let discovery_to_b =
    Discovery.run ~net ~origin:server_b ~observer:server_a ~probe_prefix ()
  in
  let discovery_to_a =
    Discovery.run ~net ~origin:server_a ~observer:server_b ~probe_prefix ()
  in
  let plan_a =
    Addressing.carve ~block ~site_index:0
      ~path_count:(List.length discovery_to_a.Discovery.paths)
  in
  let plan_b =
    Addressing.carve ~block ~site_index:1
      ~path_count:(List.length discovery_to_b.Discovery.paths)
  in
  (* Announce host prefixes plainly and each tunnel prefix with the
     community set discovery recorded for its path. *)
  let announce_site ~node ~(plan : Addressing.plan) ~(paths : Discovery.path list) =
    Network.announce net ~node plan.Addressing.host_prefix ();
    List.iteri
      (fun i prefix ->
        let path = List.nth paths i in
        Network.announce net ~node prefix
          ~communities:path.Discovery.communities ())
      plan.Addressing.tunnel_prefixes
  in
  announce_site ~node:server_a ~plan:plan_a ~paths:discovery_to_a.Discovery.paths;
  announce_site ~node:server_b ~plan:plan_b ~paths:discovery_to_b.Discovery.paths;
  ignore (Network.converge net);
  let fabric = Fabric.create ~seed:(seed + 1) ?extra_delay_ms net in
  let pop_a =
    Pop.create ~name:name_a ~node:server_a ~fabric
      ~clock_offset_ns:clock_offset_a_ns ?readmit_backoff_s ~plan:plan_a
      ~remote_plan:plan_b ~outbound_paths:discovery_to_b.Discovery.paths
      ~policy:policy_a ()
  in
  let pop_b =
    Pop.create ~name:name_b ~node:server_b ~fabric
      ~clock_offset_ns:clock_offset_b_ns ?readmit_backoff_s ~plan:plan_b
      ~remote_plan:plan_a ~outbound_paths:discovery_to_a.Discovery.paths
      ~policy:policy_b ()
  in
  Pop.wire ~a:pop_a ~b:pop_b;
  {
    engine;
    net;
    fabric;
    pop_la = pop_a;
    pop_ny = pop_b;
    discovery_to_ny = discovery_to_b;
    discovery_to_la = discovery_to_a;
  }

let setup_vultr ?(seed = 11) ?(policy_la = default_policy)
    ?(policy_ny = default_policy) ?readmit_backoff_s ?scenario
    ?(clock_offset_la_ns = 37_000_000L) ?(clock_offset_ny_ns = -12_000_000L) () =
  let extra_delay_ms = Option.map Fig4.extra_delay_ms scenario in
  setup ~seed ~policy_a:policy_la ~policy_b:policy_ny ?readmit_backoff_s
    ?extra_delay_ms ~clock_offset_a_ns:clock_offset_la_ns
    ~clock_offset_b_ns:clock_offset_ny_ns ~configure:vultr_overrides ~name_a:"LA"
    ~name_b:"NY" ~topo:(Vultr.build ()) ~server_a:Vultr.server_la
    ~server_b:Vultr.server_ny ()

let engine t = t.engine

let network t = t.net

let fabric t = t.fabric

let pop_la t = t.pop_la

let pop_ny t = t.pop_ny

let paths_to_ny t = t.discovery_to_ny.Discovery.paths

let paths_to_la t = t.discovery_to_la.Discovery.paths

let update_paths_to_ny t paths =
  t.discovery_to_ny <- { t.discovery_to_ny with Discovery.paths }

let update_paths_to_la t paths =
  t.discovery_to_la <- { t.discovery_to_la with Discovery.paths }

let start_measurement t ?probe_interval_s ?report_interval_s ?dead_after_probes
    ~for_s () =
  (* Durations are relative to now: BGP bring-up and discovery already
     consumed virtual time. *)
  let until_s = Engine.now t.engine +. for_s in
  Pop.start t.pop_la ?probe_interval_s ?report_interval_s ?dead_after_probes
    ~until_s ();
  Pop.start t.pop_ny ?probe_interval_s ?report_interval_s ?dead_after_probes
    ~until_s ()

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
