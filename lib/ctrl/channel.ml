module Engine = Tango_sim.Engine
module Packet = Tango_net.Packet
module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace
module Pop = Tango.Pop

(* Process-wide observability (DESIGN.md §10). *)
let m_hb_sent =
  Metric.counter ~help:"Control-channel heartbeats sent" "ctrl_heartbeats_sent_total"

let m_hb_received =
  Metric.counter ~help:"Control-channel heartbeats received"
    "ctrl_heartbeats_received_total"

let m_peer_loss =
  Metric.counter ~help:"Peer-loss episodes entered (control channel timed out)"
    "ctrl_peer_loss_total"

let m_peer_recovered =
  Metric.counter ~help:"Peer-loss episodes ended by a heartbeat getting through"
    "ctrl_peer_recovered_total"

let g_peer_alive =
  Metric.gauge ~help:"Endpoints currently hearing their peer (0-2)"
    "ctrl_peer_alive"

let k_loss = Trace.kind "ctrl.peer_loss"

let k_recover = Trace.kind "ctrl.peer_recover"

type Packet.content += Heartbeat

type endpoint = {
  pop : Pop.t;
  mutable sent : int;
  mutable received : int;
  mutable last_heard_s : float;
  mutable peer_alive : bool;
  mutable losses : int;
  mutable recoveries : int;
}

(* An endpoint heartbeats this often and declares peer loss after
   hearing nothing for [peer_timeout_s]: five missed heartbeats. *)
let heartbeat_interval_s = 0.1

let peer_timeout_s = 0.5

type t = {
  engine : Engine.t;
  a : endpoint;
  b : endpoint;
  mutable on_recover : (Pop.t -> unit) option;
}

let alive_count t =
  (if t.a.peer_alive then 1 else 0) + if t.b.peer_alive then 1 else 0

let set_alive_gauge t = Metric.set g_peer_alive (float_of_int (alive_count t))

let send_heartbeat ep =
  (* While the peer is lost, rotate the heartbeat across every tunnel:
     the policy is pinned (possibly to the dead path), and any single
     live tunnel must be able to carry the recovery. *)
  let path =
    if ep.peer_alive then None else Some (ep.sent mod Pop.path_count ep.pop)
  in
  ignore (Pop.send_ctrl ep.pop ?path ~content:Heartbeat ());
  ep.sent <- ep.sent + 1;
  Metric.incr m_hb_sent

let check_timeout t ep =
  let now = Engine.now t.engine in
  if ep.peer_alive && now -. ep.last_heard_s > peer_timeout_s then begin
    (* Peer loss: stat reports have stopped with the heartbeats, so the
       adaptive policy would be flying blind on staleness. Pin it —
       unilateral mode — until the peer is heard again. *)
    ep.peer_alive <- false;
    ep.losses <- ep.losses + 1;
    Pop.set_pinned ep.pop true;
    Metric.incr m_peer_loss;
    set_alive_gauge t;
    Trace.record Trace.default ~now ~kind:k_loss (Pop.node ep.pop) ep.losses
  end

let receive t ep ~now (packet : Packet.t) =
  match packet.Packet.content with
  | Some Heartbeat ->
      ep.received <- ep.received + 1;
      ep.last_heard_s <- now;
      Metric.incr m_hb_received;
      if not ep.peer_alive then begin
        (* Recovery: unpin and let the policy re-evaluate immediately;
           the owner (reconciler) re-syncs path tables via on_recover. *)
        ep.peer_alive <- true;
        ep.recoveries <- ep.recoveries + 1;
        Pop.set_pinned ep.pop false;
        Metric.incr m_peer_recovered;
        set_alive_gauge t;
        Trace.record Trace.default ~now ~kind:k_recover (Pop.node ep.pop)
          ep.recoveries;
        match t.on_recover with Some f -> f ep.pop | None -> ()
      end
  | Some _ | None -> ()

let tick t _engine =
  send_heartbeat t.a;
  send_heartbeat t.b;
  check_timeout t t.a;
  check_timeout t t.b

let attach ~engine ~pop_a ~pop_b ?until_s () =
  let now = Engine.now engine in
  let endpoint pop =
    {
      pop;
      sent = 0;
      received = 0;
      last_heard_s = now;
      peer_alive = true;
      losses = 0;
      recoveries = 0;
    }
  in
  let t = { engine; a = endpoint pop_a; b = endpoint pop_b; on_recover = None } in
  Pop.set_ctrl_handler pop_a (fun ~now packet -> receive t t.a ~now packet);
  Pop.set_ctrl_handler pop_b (fun ~now packet -> receive t t.b ~now packet);
  set_alive_gauge t;
  Engine.every engine ~interval:heartbeat_interval_s ?until:until_s (tick t);
  t

let set_on_recover t f = t.on_recover <- Some f

let endpoint_of t pop =
  if Pop.node pop = Pop.node t.a.pop then t.a
  else if Pop.node pop = Pop.node t.b.pop then t.b
  else invalid_arg "Channel: pop is not an endpoint of this channel"

let peer_alive t pop = (endpoint_of t pop).peer_alive

let heartbeats_sent t pop = (endpoint_of t pop).sent

let heartbeats_received t pop = (endpoint_of t pop).received

let losses t pop = (endpoint_of t pop).losses

let recoveries t pop = (endpoint_of t pop).recoveries
