module Engine = Tango_sim.Engine
module Fabric = Tango_dataplane.Fabric
module Network = Tango_bgp.Network
module Delay_process = Tango_workload.Delay_process
module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace
module Pair = Tango.Pair
module Pop = Tango.Pop
module Addressing = Tango.Addressing
module Discovery = Tango.Discovery

(* Process-wide observability (DESIGN.md §9). *)
let g_active =
  Metric.gauge ~help:"Fault windows currently active" "faults_active"

let m_injected =
  Metric.counter ~help:"Fault activations fired" "faults_injected_total"

let m_switches_during =
  Metric.counter
    ~help:"Path switches made by the affected sender inside fault windows"
    "fault_path_switches_total"

let k_on = Trace.kind "fault.on"

let k_off = Trace.kind "fault.off"

type armed = {
  spec : Spec.t;
  index : int;  (** Arming order; salts the brownout delay seed. *)
  mutable active : bool;
  (* Undo for the currently-applied effect. [None] while inactive, and
     also mid-flap when the toggling effect is in its "off" half. *)
  mutable undo : (unit -> unit) option;
  mutable switches_at_on : int;
}

type t = {
  pair : Pair.t;
  seed : int;
  mutable disarmed : bool;
  mutable active_count : int;
  mutable injected : int;
  mutable switches_during : int;
  mutable events : (float * string) list;  (** Reverse chronological. *)
  mutable last_off_s : float;  (** When the latest fault window closed. *)
  faults : armed array;
}

let sender_pop t = function
  | Spec.To_ny -> Pair.pop_la t.pair
  | Spec.To_la -> Pair.pop_ny t.pair

let receiver_pop t = function
  | Spec.To_ny -> Pair.pop_ny t.pair
  | Spec.To_la -> Pair.pop_la t.pair

let paths t dir = Pop.outbound_paths (sender_pop t dir)

(* The path's distinguishing link: the hop from its last transit into
   the destination provider, resolved from the live BGP tables — so a
   path re-pinned by a concurrent BGP fault blackholes where it
   currently runs, not where it ran at arm time. The shared
   provider→server last hop is deliberately avoided: failing it would
   take down every path at once. *)
let path_link t ~dir ~path =
  let sender = sender_pop t dir in
  let addr = Addressing.tunnel_endpoint (Pop.remote_plan sender) ~path in
  let net = Pair.network t.pair in
  match Network.forwarding_path net ~from_node:(Pop.node sender) addr with
  | Some nodes when List.length nodes >= 3 ->
      let arr = Array.of_list nodes in
      let len = Array.length arr in
      Some (arr.(len - 3), arr.(len - 2))
  | Some _ | None -> None

let note t ~now msg spec =
  t.events <- (now, Printf.sprintf "%s %s" msg (Spec.to_string spec)) :: t.events

(* ------------------------------------------------------------------ *)
(* Per-kind apply functions: perform the effect now and return its
   undo, or [None] when the effect could not land (e.g. the path is
   currently unroutable, so there is no link to blackhole).            *)

let apply_blackhole t (a : armed) () =
  match path_link t ~dir:a.spec.dir ~path:a.spec.path with
  | None -> None
  | Some (from_node, to_node) ->
      let fabric = Pair.fabric t.pair in
      Fabric.fail_link fabric ~from_node ~to_node;
      Some (fun () -> Fabric.heal_link fabric ~from_node ~to_node)

let apply_brownout t (a : armed) ~loss ~extra_ms () =
  match path_link t ~dir:a.spec.dir ~path:a.spec.path with
  | None -> None
  | Some (from_node, to_node) ->
      let fabric = Pair.fabric t.pair in
      (* A fresh noise burst per activation, seeded from the arm seed
         and the fault's arming index only — reproducible, and distinct
         across faults. *)
      let dp =
        Delay_process.create
          ~seed:(t.seed + (1009 * (a.index + 1)))
          ~base_ms:extra_ms ~white_std_ms:(extra_ms /. 4.0) ()
      in
      Fabric.set_link_fault fabric ~from_node ~to_node ~loss
        ~extra_delay_ms:(fun ~time_s -> Delay_process.value dp ~time_s)
        ();
      Some (fun () -> Fabric.clear_link_fault fabric ~from_node ~to_node)

let apply_starvation t (a : armed) () =
  let pop = sender_pop t a.spec.dir in
  Pop.set_probe_suppression pop true;
  Some (fun () -> Pop.set_probe_suppression pop false)

let apply_clock_step t (a : armed) ~step_ms () =
  let pop = receiver_pop t a.spec.dir in
  let step_ns = Int64.of_float (step_ms *. 1e6) in
  Pop.step_clock pop ~step_ns;
  Some (fun () -> Pop.step_clock pop ~step_ns:(Int64.neg step_ns))

(* Tunnel prefixes toward a site are owned (and announced) by that
   site — the receiver of the faulted direction. *)
let bgp_target t (a : armed) =
  let owner = receiver_pop t a.spec.dir in
  let prefix =
    List.nth (Pop.plan owner).Addressing.tunnel_prefixes a.spec.path
  in
  let communities =
    (List.nth (paths t a.spec.dir) a.spec.path).Discovery.communities
  in
  (Pop.node owner, prefix, communities)

let apply_withdraw t (a : armed) () =
  let node, prefix, communities = bgp_target t a in
  let net = Pair.network t.pair in
  Network.withdraw net ~node prefix;
  Some (fun () -> Network.announce net ~node prefix ~communities ())

let apply_community_drop t (a : armed) () =
  let node, prefix, communities = bgp_target t a in
  let net = Pair.network t.pair in
  Network.announce net ~node prefix ();
  Some (fun () -> Network.announce net ~node prefix ~communities ())

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)

(* Flapping faults toggle between applied and restored every half
   period; each toggle re-resolves the effect against live state. *)
let rec toggle t (a : armed) ~period_s ~end_s apply engine =
  if (not t.disarmed) && a.active then begin
    (match a.undo with
    | Some undo ->
        undo ();
        a.undo <- None
    | None -> a.undo <- apply ());
    let next = Engine.now engine +. (period_s /. 2.0) in
    if next < end_s then
      Engine.schedule_at engine ~time:next (toggle t a ~period_s ~end_s apply)
  end

let activate t (a : armed) ~end_s engine =
  if not t.disarmed then begin
    a.active <- true;
    t.active_count <- t.active_count + 1;
    t.injected <- t.injected + 1;
    a.switches_at_on <- Pop.policy_switches (sender_pop t a.spec.dir);
    Metric.set g_active (float_of_int t.active_count);
    Metric.incr m_injected;
    let now = Engine.now engine in
    Trace.record Trace.default ~now ~kind:k_on a.spec.path
      (Spec.kind_code a.spec.kind);
    note t ~now "on " a.spec;
    match a.spec.kind with
    | Spec.Blackhole -> a.undo <- apply_blackhole t a ()
    | Spec.Flap { period_s } ->
        toggle t a ~period_s ~end_s (apply_blackhole t a) engine
    | Spec.Brownout { loss; extra_ms } ->
        a.undo <- apply_brownout t a ~loss ~extra_ms ()
    | Spec.Probe_starvation -> a.undo <- apply_starvation t a ()
    | Spec.Clock_step { step_ms } -> a.undo <- apply_clock_step t a ~step_ms ()
    | Spec.Bgp_withdraw -> a.undo <- apply_withdraw t a ()
    | Spec.Bgp_flap { period_s } ->
        toggle t a ~period_s ~end_s (apply_withdraw t a) engine
    | Spec.Community_drop -> a.undo <- apply_community_drop t a ()
    | Spec.Relay_kill | Spec.Mesh_partition _ | Spec.Relay_detour
    | Spec.Relay_tamper _ | Spec.Relay_replay ->
        (* [arm] rejects mesh faults before any is scheduled. *)
        assert false
  end

let deactivate t (a : armed) engine =
  if a.active then begin
    a.active <- false;
    (match a.undo with
    | Some undo ->
        undo ();
        a.undo <- None
    | None -> ());
    t.active_count <- t.active_count - 1;
    Metric.set g_active (float_of_int t.active_count);
    let switches =
      Pop.policy_switches (sender_pop t a.spec.dir) - a.switches_at_on
    in
    t.switches_during <- t.switches_during + switches;
    Metric.add m_switches_during switches;
    let now = Engine.now engine in
    t.last_off_s <- Float.max t.last_off_s now;
    Trace.record Trace.default ~now ~kind:k_off a.spec.path
      (Spec.kind_code a.spec.kind);
    note t ~now "off" a.spec
  end

let path_targeted = function
  | Spec.Blackhole | Spec.Flap _ | Spec.Brownout _ | Spec.Bgp_withdraw
  | Spec.Bgp_flap _ | Spec.Community_drop ->
      true
  | Spec.Probe_starvation | Spec.Clock_step _ | Spec.Relay_kill
  | Spec.Mesh_partition _ | Spec.Relay_detour | Spec.Relay_tamper _
  | Spec.Relay_replay ->
      false

let arm ~pair ?(seed = 42) spec_list =
  let t =
    {
      pair;
      seed;
      disarmed = false;
      active_count = 0;
      injected = 0;
      switches_during = 0;
      events = [];
      last_off_s = neg_infinity;
      faults =
        Array.of_list
          (List.mapi
             (fun index spec ->
               Spec.validate spec;
               {
                 spec;
                 index;
                 active = false;
                 undo = None;
                 switches_at_on = 0;
               })
             spec_list);
    }
  in
  Array.iter
    (fun (a : armed) ->
      if Spec.targets_mesh a.spec.kind then
        Err.invalid
          "Inject.arm: %s targets a mesh world; arm it through \
           Tango_mesh.Mesh.run, not a pair"
          (Spec.kind_to_string a.spec.kind);
      if path_targeted a.spec.kind then begin
        let count = List.length (paths t a.spec.dir) in
        if a.spec.path >= count then
          Err.invalid "Inject.arm: path %d out of range (%d %s paths)"
            a.spec.path count
            (Spec.dir_to_string a.spec.dir)
      end)
    t.faults;
  let engine = Pair.engine pair in
  let now = Engine.now engine in
  Array.iter
    (fun (a : armed) ->
      let end_s = now +. a.spec.start_s +. a.spec.duration_s in
      Engine.schedule_at engine ~time:(now +. a.spec.start_s)
        (activate t a ~end_s);
      Engine.schedule_at engine ~time:end_s (deactivate t a))
    t.faults;
  t

let clear t =
  if not t.disarmed then begin
    t.disarmed <- true;
    let engine = Pair.engine t.pair in
    Array.iter (fun a -> deactivate t a engine) t.faults
  end

let active t = t.active_count

let injected t = t.injected

let switches_during t = t.switches_during

let last_off_s t = t.last_off_s

let timeline t = List.rev t.events
