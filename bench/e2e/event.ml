(* The event-driven workloads: the relay mesh (mesh-64) and the paper's
   two-PoP deployment (pair-vultr). Both run on the discrete-event
   engine and bypass the batched lanes entirely. *)

module Engine = Tango_sim.Engine
module Stats = Tango_sim.Stats
module Series = Tango_telemetry.Series
module Fig4 = Tango_workload.Fig4
module Traffic = Tango_workload.Traffic
module Pair = Tango.Pair
module Pop = Tango.Pop
module Mesh = Tango_mesh.Mesh
module Mtopo = Tango_mesh.Mtopo
module Arbor = Tango_mesh.Arbor
module Scenario = Tango_faults.Scenario
module Metric = Tango_obs.Metric

let counter name =
  List.fold_left
    (fun acc (v : Metric.view) ->
      match v.Metric.value with
      | Metric.Counter_value n when String.equal v.Metric.name name -> n
      | _ -> acc)
    0 (Metric.views ())

(* ------------------------------------------------------------------ *)
(* mesh-64                                                             *)

type mesh_config = {
  pops : int;
  degree : int;
  trees : int;
  flows : int;
  duration_s : float;
  pkt_interval_s : float;
}

let mesh_args c =
  [
    ("pops", string_of_int c.pops);
    ("degree", string_of_int c.degree);
    ("trees", string_of_int c.trees);
    ("flows", string_of_int c.flows);
    ("duration_s", Printf.sprintf "%g" c.duration_s);
    ("pkt_interval_s", Printf.sprintf "%g" c.pkt_interval_s);
    ("attest", "true");
    ("scenario", "relay-kill");
  ]

let mesh_run ?duration_s ?(specs = true) c ~seed =
  let duration_s = Option.value duration_s ~default:c.duration_s in
  Mesh.run ~pops:c.pops ~degree:c.degree ~trees:c.trees ~seed ~flows:c.flows
    ~duration_s ~pkt_interval_s:c.pkt_interval_s
    ~specs:(if specs then (Scenario.get "relay-kill").Scenario.specs else [])
    ~attest:true ()

(* Set-up of the mesh world: [Mesh.run] over a horizon that ends before
   the first flow starts (flows start at 0.5 s) builds everything a
   full run builds — topology, arborescences, membership, relays,
   stitched and committed routes — and forwards nothing. *)
let mesh_setup c ~seed = ignore (mesh_run ~duration_s:0.25 ~specs:false c ~seed)

(* The benchmark's own topology and arborescence builds, for the
   per-layer set-up split: their spans. *)
let mesh_builds c ~seed tr ~parent =
  let topo, mtopo =
    Span.time tr ~parent "mtopo.generate" (fun () ->
        Mtopo.generate ~degree:c.degree ~pops:c.pops ~seed ())
  in
  let _, arbor = Span.time tr ~parent "arbor.build" (fun () -> Arbor.build ~k:c.trees topo) in
  (mtopo, arbor)

let in_flight (r : Mesh.result) =
  r.Mesh.sent - r.Mesh.delivered - r.Mesh.dropped - r.Mesh.rejected

(* ------------------------------------------------------------------ *)
(* pair-vultr                                                          *)

type pair_config = { horizon_s : float; app_hz : float; probe_interval_s : float }

let pair_args c =
  [
    ("horizon_s", Printf.sprintf "%g" c.horizon_s);
    ("app_hz", Printf.sprintf "%g" c.app_hz);
    ("probe_interval_s", Printf.sprintf "%g" c.probe_interval_s);
    ("policy", "lowest-owd");
    ("dynamics", "fig4");
    ("direction", "ny->la");
  ]

let pair_setup c ~seed =
  let scenario = Fig4.create ~seed ~horizon_s:c.horizon_s () in
  Pair.setup_vultr ~seed ~scenario ~clock_offset_la_ns:0L ~clock_offset_ny_ns:0L
    ()

type pair_outcome = {
  sent : int;
  received : int;
  app_p50_ms : float;
  app_p99_ms : float;
  best_owd_ms : float;  (* lowest per-path mean one-way delay, NY -> LA *)
  default_owd_ms : float;  (* the BGP default path's (path 0) *)
  drive_s : float;  (* wall time of the virtual horizon *)
}

(* Probe every path, send application packets NY -> LA at [app_hz], and
   run the horizon out ([slice] > 0 runs it in slices of that many
   virtual seconds, each passed to [on_slice]). *)
let pair_drive ?(slice = 0.0) ?(on_slice = fun f -> f ()) ?(send = fun f -> f ())
    c pair =
  let engine = Pair.engine pair in
  let ny = Pair.pop_ny pair and la = Pair.pop_la pair in
  let t0 = Engine.now engine in
  Pair.start_measurement pair ~probe_interval_s:c.probe_interval_s
    ~for_s:c.horizon_s ();
  let sent = ref 0 in
  let send_one () =
    ignore (Pop.send_app ny ());
    incr sent
  in
  Traffic.periodic engine ~interval_s:(1.0 /. c.app_hz)
    ~until_s:(t0 +. c.horizon_s) (fun _ -> send send_one);
  let stop = t0 +. c.horizon_s +. 1.0 in
  let (), drive_s =
    Span.timed (fun () ->
        if slice <= 0.0 then Engine.run ~until:stop engine
        else begin
          let n = int_of_float (Float.ceil ((stop -. t0) /. slice)) in
          for k = 1 to n do
            let until = if k = n then stop else t0 +. (float_of_int k *. slice) in
            on_slice (fun () -> Engine.run ~until engine)
          done
        end)
  in
  let app = Series.stats (Pop.app_latency_series la) in
  let means =
    List.init (Pop.path_count la) (fun path ->
        (Series.stats (Pop.inbound_owd_series la ~path)).Stats.mean)
  in
  {
    sent = !sent;
    received = Pop.app_received la;
    app_p50_ms = app.Stats.p50 *. 1000.0;
    app_p99_ms = app.Stats.p99 *. 1000.0;
    best_owd_ms = List.fold_left Float.min infinity means;
    default_owd_ms = List.hd means;
    drive_s;
  }
