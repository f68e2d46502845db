module Engine = Tango_sim.Engine
module Stats = Tango_sim.Stats
module Packet = Tango_net.Packet
module Flow = Tango_net.Flow
module Addr = Tango_net.Addr
module Fabric = Tango_dataplane.Fabric
module Clock = Tango_dataplane.Clock
module Tunnel = Tango_dataplane.Tunnel
module Seq_tracker = Tango_dataplane.Seq_tracker
module Flow_cache = Tango_dataplane.Flow_cache
module Series = Tango_telemetry.Series
module Ewma = Tango_telemetry.Ewma
module Rolling = Tango_telemetry.Rolling
module Jitter = Tango_telemetry.Jitter
module Detect = Tango_telemetry.Detect
module Inorder = Tango_workload.Inorder
module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace

(* Process-wide observability, aggregated across PoPs (DESIGN.md §8). *)
let m_policy_evals =
  Metric.counter ~help:"Full policy scoring passes" "pop_policy_evals_total"

let m_path_switches =
  Metric.counter ~help:"Preferred-path changes" "pop_path_switches_total"

let m_cache_hits =
  Metric.counter ~help:"Per-flow path-decision cache hits" "pop_flow_cache_hits_total"

let m_cache_misses =
  Metric.counter ~help:"Per-flow path-decision cache misses"
    "pop_flow_cache_misses_total"

let m_probes_sent = Metric.counter ~help:"Probe packets sent" "pop_probes_sent_total"

let m_probes_received =
  Metric.counter ~help:"Probe packets received" "pop_probes_received_total"

let m_reports_received =
  Metric.counter ~help:"Peer stat reports received" "pop_reports_received_total"

let m_app_received =
  Metric.counter ~help:"Application packets delivered to the host"
    "pop_app_received_total"

let m_transited =
  Metric.counter ~help:"Packets relayed onward for the overlay"
    "pop_transit_relayed_total"

let k_path_switch = Trace.kind "pop.path_switch"

let probe_port = 7

let report_port = 4790

let app_port = 5000

let stream_port = 5001

let ctrl_port = 4791

let max_paths = 16

(* Weight of each new OWD sample in a path's EWMA. *)
let ewma_alpha = 0.1

(* The policy is fully re-evaluated at most once per this much virtual
   time: one probe interval. *)
let policy_refresh_s = 0.01

type Packet.content += App_seq of int | Report of Policy.path_stats array

type t = {
  node : int;
  fabric : Fabric.t;
  (* Mutable so the fault engine can apply NTP-style clock steps
     mid-run ({!step_clock}); [Clock.t] itself stays immutable. *)
  mutable clock : Clock.t;
  plan : Addressing.plan;
  remote_plan : Addressing.plan;
  (* Host address 1 of each side's plan: the endpoints of every flow
     this PoP originates unless the caller names another destination. *)
  local_host : Addr.t;
  remote_host : Addr.t;
  (* Mutable so the reconciler can swap in a re-discovered path table
     mid-run ({!install_outbound_paths}); [table_epoch] stamps each
     installed generation. [outbound_paths] is the one copy of the
     discovered table: the pair and the reconciler read it here. *)
  mutable tunnels : Tunnel.t array;
  mutable outbound_paths : Discovery.path list;
  mutable table_epoch : int;
  policy : Policy.t;
  (* Path-decision fast path: the policy is re-evaluated at most once
     per [policy_refresh_s] (one "flow epoch"); between evaluations,
     per-flow decisions come from the cache. A changed preference
     invalidates every cached flow at once. *)
  path_cache : Flow_cache.t;
  mutable last_choice : int;
  mutable last_choice_at : float;
  mutable policy_evals : int;
  (* Inbound measurement state, indexed by path id. Each path's OWD
     samples are pushed once onto its ring, which the jitter window and
     both detector windows share. *)
  owd_series : Series.t array;
  owd_ewma : Ewma.t array;
  owd_rings : Rolling.ring array;
  jitter : Jitter.t array;
  detectors : Detect.t array;
  trackers : Seq_tracker.t array;
  inbound_samples : int array;
  last_arrival : float array;
  (* Peer-reported stats for outbound paths, plus when the report
     arrived — ages are re-based to "now" at read time so staleness
     keeps growing when reports stop coming. *)
  mutable outbound_stats : Policy.path_stats array;
  mutable outbound_stats_at : float;
  (* Application metrics. *)
  app_latency : Series.t;
  inorder : Inorder.t;
  inorder_extra : Stats.t;
  chosen_paths : Series.t;
  mutable app_seq : int;
  mutable next_packet_id : int;
  (* Probe starvation (lib/faults): while set, periodic probes are
     silently skipped, so the peer's inbound stats go stale and its
     policy must detect the dead-path condition by staleness alone. *)
  mutable probes_suppressed : bool;
  mutable app_received : int;
  (* The fabric delivery callback for everything this PoP sends, built
     once by {!wire} rather than per dispatch; [not_wired] until then. *)
  mutable on_delivered : node:int -> Packet.t -> unit;
  mutable stream_handler : (now:float -> Packet.t -> unit) option;
  (* In-band pair control channel (lib/ctrl): heartbeats and digests
     arrive on [ctrl_port]. While [pinned], the policy refresh is
     frozen (peer loss: stat reports stopped, so adaptive decisions
     would be driven by staleness noise). *)
  mutable ctrl_handler : (now:float -> Packet.t -> unit) option;
  mutable pinned : bool;
  (* Overlay hook: invoked for decapsulated packets whose inner
     destination is not in this site's host prefix (Tango-of-N
     relaying). *)
  mutable transit_handler : (now:float -> Packet.t -> unit) option;
  mutable transited : int;
}

let engine t = Tango_bgp.Network.engine (Fabric.network t.fabric)

let engine_of = engine

let not_wired ~node:_ (_ : Packet.t) =
  invalid_arg "Pop: not wired to a peer (call Pop.wire)"

let tunnels_of ~plan ~remote_plan outbound_paths =
  Array.of_list
    (List.map
       (fun (p : Discovery.path) ->
         Tunnel.create ~path_id:p.Discovery.index ~label:p.Discovery.label
           ~local_endpoint:
             (Addressing.host_address plan (Int64.of_int p.Discovery.index))
           ~remote_endpoint:
             (Addressing.tunnel_endpoint remote_plan ~path:p.Discovery.index)
           ())
       outbound_paths)

let create ~node ~fabric ?(clock_offset_ns = 0L) ?readmit_backoff_s
    ~plan ~remote_plan ~outbound_paths ~policy () =
  let tunnels = tunnels_of ~plan ~remote_plan outbound_paths in
  let owd_rings = Array.init max_paths (fun _ -> Rolling.ring ()) in
  {
    node;
    fabric;
    clock = Clock.create ~offset_ns:clock_offset_ns ();
    plan;
    remote_plan;
    local_host = Addressing.host_address plan 1L;
    remote_host = Addressing.host_address remote_plan 1L;
    tunnels;
    outbound_paths;
    table_epoch = 0;
    policy = Policy.create ?readmit_backoff_s policy;
    path_cache = Flow_cache.create ();
    last_choice = (match policy with Policy.Static i -> i | _ -> 0);
    last_choice_at = neg_infinity;
    policy_evals = 0;
    (* Small to start: most of the [max_paths] slots never see a sample,
       and the used ones grow by doubling. *)
    owd_series = Array.init max_paths (fun _ -> Series.create ~capacity:16 ());
    owd_ewma = Array.init max_paths (fun _ -> Ewma.create ~alpha:ewma_alpha);
    owd_rings;
    jitter = Array.map Jitter.of_ring owd_rings;
    detectors = Array.map Detect.of_ring owd_rings;
    trackers = Array.init max_paths (fun _ -> Seq_tracker.create ());
    inbound_samples = Array.make max_paths 0;
    last_arrival = Array.make max_paths neg_infinity;
    outbound_stats =
      Array.init (List.length outbound_paths) (fun i -> Policy.no_stats ~path_id:i);
    outbound_stats_at = 0.0;
    app_latency = Series.create ();
    inorder = Inorder.create ();
    inorder_extra = Stats.create ();
    chosen_paths = Series.create ();
    app_seq = 0;
    next_packet_id = 0;
    app_received = 0;
    on_delivered = not_wired;
    probes_suppressed = false;
    stream_handler = None;
    ctrl_handler = None;
    pinned = false;
    transit_handler = None;
    transited = 0;
  }

let node t = t.node

let path_count t = Array.length t.tunnels

let outbound_paths t = t.outbound_paths

let path_label t i =
  if i < 0 || i >= path_count t then
    invalid_arg (Printf.sprintf "Pop.path_label: no path %d" i)
  else (List.nth t.outbound_paths i).Discovery.label

(* ------------------------------------------------------------------ *)
(* Receive side: the receiver eBPF program plus host delivery.          *)

let[@hot] record_measurement t ~now ~path ~seq owd_ms =
  if path >= 0 && path < max_paths then begin
    Series.add t.owd_series.(path) ~time:now owd_ms;
    Ewma.add t.owd_ewma.(path) owd_ms;
    Rolling.push t.owd_rings.(path) ~time:now owd_ms;
    Jitter.update t.jitter.(path);
    Detect.update t.detectors.(path) ~time:now owd_ms;
    Seq_tracker.observe ~now_s:now t.trackers.(path) seq;
    t.inbound_samples.(path) <- t.inbound_samples.(path) + 1;
    t.last_arrival.(path) <- now
  end

let deliver_to_host t ~now (packet : Packet.t) =
  let flow = packet.Packet.flow in
  if
    (not (Tango_net.Prefix.mem t.plan.Addressing.host_prefix flow.Flow.dst))
    && Option.is_some t.transit_handler
  then begin
    (* Not addressed to a host here: hand to the overlay for relaying. *)
    t.transited <- t.transited + 1;
    Metric.incr m_transited;
    (Option.get t.transit_handler) ~now packet
  end
  else if flow.Flow.dst_port = probe_port then Metric.incr m_probes_received
  else if flow.Flow.dst_port = report_port then begin
    match packet.Packet.content with
    | Some (Report stats) ->
        Metric.incr m_reports_received;
        t.outbound_stats <- stats;
        t.outbound_stats_at <- now
    | Some _ | None -> ()
  end
  else if flow.Flow.dst_port = stream_port then begin
    match t.stream_handler with
    | Some handler -> handler ~now packet
    | None -> ()
  end
  else if flow.Flow.dst_port = ctrl_port then begin
    match t.ctrl_handler with
    | Some handler -> handler ~now packet
    | None -> ()
  end
  else if flow.Flow.dst_port = app_port then begin
    t.app_received <- t.app_received + 1;
    Metric.incr m_app_received;
    let latency = now -. packet.Packet.created_at in
    Series.add t.app_latency ~time:now latency;
    match packet.Packet.content with
    | Some (App_seq seq) ->
        (* Every packet this arrival releases waited from its own
           arrival until now: its head-of-line extra. *)
        for i = 0 to Inorder.arrive t.inorder ~seq ~time:now - 1 do
          Stats.add t.inorder_extra (now -. Inorder.run_arrival t.inorder i)
        done
    | Some _ | None -> ()
  end

(* The receiver program: decapsulate, measure the one-way delay from the
   shim's timestamp, then deliver the inner packet. *)
let[@hot] handle_arrival t (packet : Packet.t) =
  let now = Engine.now (engine t) in
  if Packet.is_encapsulated packet then begin
    let tango = (Packet.decapsulate packet).Packet.tango in
    record_measurement t ~now ~path:tango.Packet.path_id ~seq:tango.Packet.seq
      (Tunnel.owd_ms ~clock:t.clock ~now_s:now tango)
  end;
  deliver_to_host t ~now packet

(* ------------------------------------------------------------------ *)
(* Send side: the sender eBPF program.                                  *)

let[@hot] dispatch t (packet : Packet.t) =
  if t.on_delivered == not_wired then not_wired ~node:t.node packet;
  Fabric.send t.fabric ~from_node:t.node ~on_delivered:t.on_delivered packet

(* A PoP's packets are delivered at its peer's node, or back at its own
   (a route that loops home). *)
let delivery ~self ~peer ~node packet =
  if node = peer.node then handle_arrival peer packet
  else if node = self.node then handle_arrival self packet

let wire ~a ~b =
  a.on_delivered <- delivery ~self:a ~peer:b;
  b.on_delivered <- delivery ~self:b ~peer:a

let fresh_id t =
  let id = t.next_packet_id in
  t.next_packet_id <- id + 1;
  id

let send_flow t ~path ~flow ~payload_bytes ?content () =
  if path < 0 || path >= Array.length t.tunnels then
    invalid_arg (Printf.sprintf "Pop.send_on_path: no tunnel %d" path);
  let now = Engine.now (engine t) in
  let packet =
    Packet.create ~id:(fresh_id t) ~flow ~payload_bytes ?content ~created_at:now ()
  in
  Tunnel.send t.tunnels.(path) ~clock:t.clock ~now_s:now packet;
  dispatch t packet

let send_on_path t ~path ~src_port ~dst_port ~payload_bytes ?content ?dst () =
  let dst = match dst with Some a -> a | None -> t.remote_host in
  let flow = Flow.v ~src:t.local_host ~dst ~proto:17 ~src_port ~dst_port in
  send_flow t ~path ~flow ~payload_bytes ?content ()

(* Peer-reported stats with ages re-based to the present: if reports
   stop (e.g. every path carrying them died), staleness keeps rising.
   This copying form is the cold accessor (CLI, experiments); the hot
   policy refresh below passes the raw array plus [~age_extra] instead,
   so no per-evaluation array is materialized. *)
let live_outbound_stats t =
  let now = Engine.now (engine t) in
  let extra = now -. t.outbound_stats_at in
  Array.map
    (fun (s : Policy.path_stats) -> { s with Policy.age_s = s.Policy.age_s +. extra })
    t.outbound_stats

(* One policy evaluation per flow epoch: the full scoring pass (and the
   stats-array rebase it needs) runs at most once per [policy_refresh_s]
   of virtual time; a changed preference invalidates the per-flow cache
   so every flow migrates on its next packet. *)
let[@hot] refresh_policy t ~now =
  if (not t.pinned) && now -. t.last_choice_at > policy_refresh_s then begin
    let path =
      Policy.choose t.policy ~now_s:now
        ~age_extra:(now -. t.outbound_stats_at)
        t.outbound_stats
    in
    t.policy_evals <- t.policy_evals + 1;
    Metric.incr m_policy_evals;
    t.last_choice_at <- now;
    if path <> t.last_choice then begin
      Metric.incr m_path_switches;
      Trace.record Trace.default ~now ~kind:k_path_switch t.last_choice path;
      t.last_choice <- path;
      Flow_cache.invalidate t.path_cache
    end
  end

let[@hot] choose_path t ~now ~flow_hash =
  refresh_policy t ~now;
  match Flow_cache.find t.path_cache ~flow_hash with
  | Some path ->
      Metric.incr m_cache_hits;
      path
  | None ->
      Metric.incr m_cache_misses;
      Flow_cache.store t.path_cache ~flow_hash t.last_choice;
      t.last_choice

let send_app t ?(payload_bytes = 512) ?final_dst () =
  let now = Engine.now (engine t) in
  let seq = t.app_seq in
  t.app_seq <- seq + 1;
  let dst = match final_dst with Some a -> a | None -> t.remote_host in
  let flow =
    Flow.v ~src:t.local_host ~dst ~proto:17
      ~src_port:(50000 + (seq mod 1000))
      ~dst_port:app_port
  in
  let path = choose_path t ~now ~flow_hash:(Flow.hash_5tuple flow) in
  Series.add t.chosen_paths ~time:now (float_of_int path);
  send_flow t ~path ~flow ~payload_bytes ~content:(App_seq seq) ();
  path

let set_transit_handler t handler = t.transit_handler <- Some handler

let transited t = t.transited

(* Relay a decapsulated in-flight packet onward over this PoP's own best
   path, preserving its identity and creation time so end-to-end
   latency measurements span the whole overlay route. *)
let forward_transit t (packet : Packet.t) =
  let now = Engine.now (engine t) in
  let path =
    choose_path t ~now ~flow_hash:(Flow.hash_5tuple packet.Packet.flow)
  in
  Tunnel.send t.tunnels.(path) ~clock:t.clock ~now_s:now packet;
  dispatch t packet

let set_stream_handler t handler = t.stream_handler <- Some handler

(* ------------------------------------------------------------------ *)
(* Control plane: epoch-versioned path-table swap and the in-band pair
   control channel (lib/ctrl).                                          *)

let install_outbound_paths t outbound_paths =
  let n = List.length outbound_paths in
  if n = 0 then invalid_arg "Pop.install_outbound_paths: empty path table";
  if n > max_paths then
    invalid_arg (Printf.sprintf "Pop.install_outbound_paths: %d paths (max %d)" n max_paths);
  List.iteri
    (fun i (p : Discovery.path) ->
      if p.Discovery.index <> i then
        invalid_arg
          (Printf.sprintf
             "Pop.install_outbound_paths: path at position %d has index %d" i
             p.Discovery.index))
    outbound_paths;
  t.tunnels <- tunnels_of ~plan:t.plan ~remote_plan:t.remote_plan outbound_paths;
  t.outbound_paths <- outbound_paths;
  (* Retained indices keep their peer-reported stats; paths new in this
     epoch start unmeasured, exactly like at creation. *)
  let old = t.outbound_stats in
  t.outbound_stats <-
    Array.init n (fun i ->
        if i < Array.length old then old.(i) else Policy.no_stats ~path_id:i);
  if t.last_choice >= n then t.last_choice <- 0;
  if Policy.current t.policy >= n then Policy.retarget t.policy ~path:0;
  t.table_epoch <- t.table_epoch + 1;
  (* Drop every cached per-flow decision and force a full policy pass on
     the next packet: the swap is atomic from the data plane's view. *)
  t.last_choice_at <- neg_infinity;
  Flow_cache.invalidate t.path_cache

let table_epoch t = t.table_epoch

let set_ctrl_handler t handler = t.ctrl_handler <- Some handler

(* Control traffic is in-band: it rides whatever path the live policy
   currently prefers, fate-sharing with the data plane, and fails over
   with it. *)
let send_ctrl t ?path ~content () =
  if Array.length t.tunnels = 0 then invalid_arg "Pop.send_ctrl: no tunnels";
  let flow =
    Flow.v
      ~src:t.local_host ~dst:t.remote_host
      ~proto:17 ~src_port:ctrl_port ~dst_port:ctrl_port
  in
  let path =
    match path with
    | Some p -> p
    | None ->
        let now = Engine.now (engine t) in
        choose_path t ~now ~flow_hash:(Flow.hash_5tuple flow)
  in
  send_flow t ~path ~flow ~payload_bytes:64 ~content ();
  path

let set_pinned t v =
  t.pinned <- v;
  (* On unpin, re-evaluate on the very next packet rather than waiting
     out a refresh interval. *)
  if not v then t.last_choice_at <- neg_infinity

let pinned t = t.pinned

(* Transport-layer segments: path selection via the live policy (like
   app traffic) or pinned to one tunnel, without polluting the
   app-latency metrics. *)
let send_stream t ?(payload_bytes = 1200) ~route ~content () =
  let flow =
    Flow.v
      ~src:t.local_host ~dst:t.remote_host
      ~proto:17 ~src_port:stream_port ~dst_port:stream_port
  in
  let path =
    match route with
    | `Policy ->
        let now = Engine.now (engine t) in
        choose_path t ~now ~flow_hash:(Flow.hash_5tuple flow)
    | `Path p -> p
  in
  send_flow t ~path ~flow ~payload_bytes ~content ();
  path

(* The per-tick probe burst: one probe per tunnel, each dispatched as
   soon as it is built. *)
let send_probe t =
  if not t.probes_suppressed then begin
    let now = Engine.now (engine t) in
    let dst = t.remote_host and src = t.local_host in
    for path = 0 to Array.length t.tunnels - 1 do
      Metric.incr m_probes_sent;
      let flow =
        Flow.v ~src ~dst ~proto:17 ~src_port:probe_port ~dst_port:probe_port
      in
      let packet =
        Packet.create ~id:(fresh_id t) ~flow ~payload_bytes:64 ~created_at:now
          ()
      in
      Tunnel.send t.tunnels.(path) ~clock:t.clock ~now_s:now packet;
      dispatch t packet
    done
  end

let set_probe_suppression t suppressed = t.probes_suppressed <- suppressed

let probes_suppressed t = t.probes_suppressed

(* Inbound path ids are the peer's tunnel indices, which target this
   site's announced tunnel prefixes — so the count comes from our own
   address plan, not from our outbound tunnel set. *)
let inbound_path_count t = List.length t.plan.Addressing.tunnel_prefixes

let inbound_snapshot t =
  let now = Engine.now (engine t) in
  Array.init (inbound_path_count t) (fun path ->
      {
        Policy.path_id = path;
        owd_ewma_ms = Ewma.value t.owd_ewma.(path);
        (* Policies need the live jitter estimate, not the trace-long
           average the paper reports. *)
        jitter_ms = Jitter.recent t.jitter.(path);
        loss_rate = Seq_tracker.recent_loss_rate t.trackers.(path);
        age_s = now -. t.last_arrival.(path);
        samples = t.inbound_samples.(path);
      })

let send_report t =
  if Array.length t.tunnels > 0 then begin
    (* Ride the provider-default path: reports must flow even before any
       measurements exist. *)
    send_on_path t ~path:0 ~src_port:report_port ~dst_port:report_port
      ~payload_bytes:128
      ~content:(Report (inbound_snapshot t))
      ()
  end

let start t ?(probe_interval_s = 0.01) ?(report_interval_s = 0.1)
    ?dead_after_probes ~until_s () =
  (match dead_after_probes with
  | Some n ->
      if n <= 0 then invalid_arg "Pop.start: non-positive dead_after_probes";
      Policy.set_max_staleness_s t.policy (float_of_int n *. probe_interval_s)
  | None -> ());
  let e = engine t in
  Tango_workload.Traffic.periodic e ~interval_s:probe_interval_s ~until_s
    (fun _ -> send_probe t);
  Tango_workload.Traffic.periodic e ~interval_s:report_interval_s ~until_s
    (fun _ -> send_report t)

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)

let check_path _t path =
  if path < 0 || path >= max_paths then
    invalid_arg (Printf.sprintf "Pop: path id %d out of range" path)

let inbound_owd_series t ~path =
  check_path t path;
  t.owd_series.(path)

let inbound_jitter_ms t ~path =
  check_path t path;
  Jitter.value t.jitter.(path)

let outbound_stats t = live_outbound_stats t

let detector_events t ~path =
  check_path t path;
  Detect.events t.detectors.(path)

let app_latency_series t = t.app_latency

let app_inorder_extra t = t.inorder_extra

let chosen_path_series t = t.chosen_paths

let plan t = t.plan

let remote_plan t = t.remote_plan

let clock t = t.clock

let step_clock t ~step_ns = t.clock <- Clock.step t.clock ~step_ns

let policy t = t.policy

let policy_degraded t = Policy.degraded t.policy

let policy_switches t = Policy.switches t.policy

let policy_evaluations t = t.policy_evals

let path_cache_hits t = Flow_cache.hits t.path_cache

let path_cache_misses t = Flow_cache.misses t.path_cache

let app_received t = t.app_received
