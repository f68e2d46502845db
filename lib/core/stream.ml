module Engine = Tango_sim.Engine
module Packet = Tango_net.Packet
module Inorder = Tango_workload.Inorder

type Packet.content += Segment of int | Ack of int

type t = {
  sender : Pop.t;
  receiver : Pop.t;
  route : [ `Policy | `Path of int ];
  total_segments : int;
  engine : Engine.t;
  inorder : Inorder.t;
  sent_at : (int, float) Hashtbl.t;  (* outstanding original send times *)
  mutable base : int;  (* lowest unacked segment *)
  mutable cursor : int;  (* next segment to (re)transmit; rewinds on RTO *)
  mutable high_water : int;  (* highest segment ever transmitted + 1 *)
  mutable delivered : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable srtt : float;
  mutable rttvar : float;
  mutable started_at : float;
  mutable completed_at : float option;
  mutable last_delivery_at : float;
  mutable max_stall : float;
  mutable timer_generation : int;  (* invalidates stale RTO timers *)
  (* AIMD congestion control: the in-flight budget is
     [min window cwnd]; timeouts halve ssthresh and re-enter slow
     start, which is what converts delay spikes into lost throughput. *)
  mutable cwnd : float;
  mutable ssthresh : float;
}

(* Segments in flight at most, bytes per segment, and the RTO bounds. *)
let window = 32

let segment_bytes = 1200

let min_rto_s = 0.05

let max_rto_s = 2.0

let rto t =
  if Float.is_nan t.srtt then 0.2
  else Float.min max_rto_s (Float.max min_rto_s (t.srtt +. (4.0 *. t.rttvar)))

let update_rtt t sample =
  if Float.is_nan t.srtt then begin
    t.srtt <- sample;
    t.rttvar <- sample /. 2.0
  end
  else begin
    let delta = abs_float (t.srtt -. sample) in
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. delta);
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
  end

let finished t = Option.is_some t.completed_at

let rec arm_timer t =
  if not (finished t) then begin
    let generation = t.timer_generation in
    Engine.schedule t.engine ~delay:(rto t) (fun _ ->
        if (not (finished t)) && generation = t.timer_generation then begin
          (* RTO fired with the window still outstanding: go-back-N,
             multiplicative decrease, slow-start restart. *)
          t.timeouts <- t.timeouts + 1;
          t.rttvar <- t.rttvar *. 2.0;
          t.ssthresh <- Float.max 2.0 (t.cwnd /. 2.0);
          t.cwnd <- 2.0;
          (* Go-back-N: rewind the send cursor to the lowest unacked
             segment and retransmit from there. *)
          t.cursor <- t.base;
          t.timer_generation <- t.timer_generation + 1;
          fill_window t;
          arm_timer t
        end)
  end

and effective_window t = max 1 (min window (int_of_float t.cwnd))

and fill_window t =
  let limit = min t.total_segments (t.base + effective_window t) in
  while t.cursor < limit do
    let seq = t.cursor in
    t.cursor <- seq + 1;
    if seq < t.high_water then begin
      (* Retransmission: not used for RTT sampling (Karn's rule). *)
      t.retransmissions <- t.retransmissions + 1;
      Hashtbl.remove t.sent_at seq
    end
    else begin
      t.high_water <- seq + 1;
      Hashtbl.replace t.sent_at seq (Engine.now t.engine)
    end;
    ignore
      (Pop.send_stream t.sender ~payload_bytes:segment_bytes ~route:t.route
         ~content:(Segment seq) ())
  done

let on_ack t ~now cumulative =
  if cumulative > t.base then begin
    (* RTT sample from the newest segment this ACK covers that was sent
       exactly once. *)
    (match Hashtbl.find_opt t.sent_at (cumulative - 1) with
    | Some sent -> update_rtt t (now -. sent)
    | None -> ());
    let acked = cumulative - t.base in
    for seq = t.base to cumulative - 1 do
      Hashtbl.remove t.sent_at seq
    done;
    t.base <- cumulative;
    if t.cursor < t.base then t.cursor <- t.base;
    (* Slow start below ssthresh, congestion avoidance above. *)
    for _ = 1 to acked do
      if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.0
      else t.cwnd <- t.cwnd +. (1.0 /. t.cwnd)
    done;
    t.timer_generation <- t.timer_generation + 1;
    if t.base >= t.total_segments then t.completed_at <- Some now
    else begin
      fill_window t;
      arm_timer t
    end
  end

let on_segment t ~now seq =
  (* Every segment this arrival releases is delivered now. *)
  for _ = 1 to Inorder.arrive t.inorder ~seq ~time:now do
    if t.delivered > 0 || t.last_delivery_at > 0.0 then
      t.max_stall <- Float.max t.max_stall (now -. t.last_delivery_at);
    t.last_delivery_at <- now;
    t.delivered <- t.delivered + 1
  done;
  (* Cumulative ACK for the in-order frontier, also sent on out-of-order
     arrivals (duplicate ACKs), riding the receiver's own route choice. *)
  ignore
    (Pop.send_stream t.receiver ~payload_bytes:40 ~route:t.route
       ~content:(Ack t.delivered) ())

let start ~sender ~receiver ?(route = `Policy) ~total_segments () =
  if total_segments < 1 then invalid_arg "Stream.start: nothing to send";
  let t =
    {
      sender;
      receiver;
      route;
      total_segments;
      engine = Pop.engine_of sender;
      inorder = Inorder.create ();
      sent_at = Hashtbl.create 64;
      base = 0;
      cursor = 0;
      high_water = 0;
      delivered = 0;
      retransmissions = 0;
      timeouts = 0;
      srtt = nan;
      rttvar = nan;
      started_at = 0.0;
      completed_at = None;
      last_delivery_at = 0.0;
      max_stall = 0.0;
      timer_generation = 0;
      cwnd = 2.0;
      ssthresh = float_of_int window;
    }
  in
  t.started_at <- Engine.now t.engine;
  t.last_delivery_at <- t.started_at;
  Pop.set_stream_handler receiver (fun ~now packet ->
      match packet.Packet.content with
      | Some (Segment seq) -> on_segment t ~now seq
      | Some _ | None -> ());
  Pop.set_stream_handler sender (fun ~now packet ->
      match packet.Packet.content with
      | Some (Ack cumulative) -> on_ack t ~now cumulative
      | Some _ | None -> ());
  fill_window t;
  arm_timer t;
  t


let retransmissions t = t.retransmissions

let timeouts t = t.timeouts

let goodput_mbps t =
  let stop = match t.completed_at with Some c -> c | None -> Engine.now t.engine in
  let elapsed = stop -. t.started_at in
  if elapsed <= 0.0 || t.delivered = 0 then 0.0
  else
    float_of_int (t.delivered * segment_bytes * 8) /. elapsed /. 1e6


let max_stall_s t = t.max_stall
