(* tango — command-line front-end for the Tango reproduction.

   Subcommands:
     tango discover  — run the Fig. 3 path-discovery procedure
     tango fig3      — both discovery directions (= experiment E1)
     tango measure   — run the measurement plane and print per-path OWD
     tango simulate  — full scenario with application traffic and a policy
     tango overlay   — plan a Tango-of-N overlay on the triangle topology
     tango mesh      — live triangle overlay, or an N-PoP relay mesh (--pops)
     tango faults    — run a named fault-injection scenario (lib/faults)
     tango reconcile — fault scenario with the control-plane reconciler armed
     tango throughput — multicore batched dataplane (domain lanes + batches)
     tango load      — million-flow workload engine through the batched lanes

   Every subcommand takes --metrics FILE (JSON-lines snapshot: manifest,
   counters/gauges/histograms, trace events) and --prom FILE (Prometheus
   text format); schema in EXPERIMENTS.md. *)

open Cmdliner
open Tango
module Series = Tango_telemetry.Series
module Stats = Tango_sim.Stats
module Vultr = Tango_topo.Vultr
module Obs_export = Tango_obs.Export

(* ------------------------------------------------------------------ *)
(* Observability plumbing                                              *)

let metrics_arg =
  let doc =
    "Write an observability snapshot to $(docv) as JSON-lines: one manifest \
     line, one line per counter/gauge/histogram, one line per trace event \
     (schema in EXPERIMENTS.md). Also turns metric recording on for the run."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let prom_arg =
  let doc =
    "Write the metric snapshot to $(docv) in Prometheus text format. Also \
     turns metric recording on for the run."
  in
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)

(* Run [f], recorded when an export was requested, and say which files
   were written. *)
let with_obs ~experiment ~seed ~config metrics prom f =
  Obs_export.with_recording ~experiment ~seed ~config ~metrics ~prom f;
  List.iter (Printf.printf "wrote %s\n") (List.filter_map Fun.id [ metrics; prom ])

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

(* A number outside its bound is a usage error (exit 124, nothing on
   stdout) before the command runs: one converter per kind of bound. *)
let bounded conv ~ok ~expect =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s expect))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = bounded Arg.int ~ok:(fun n -> n > 0) ~expect:"a positive integer"

let non_negative_int =
  bounded Arg.int ~ok:(fun n -> n >= 0) ~expect:"a non-negative integer"

let positive_float =
  bounded Arg.float
    ~ok:(fun x -> Float.is_finite x && x > 0.0)
    ~expect:"a positive finite number"

let non_negative_float =
  bounded Arg.float
    ~ok:(fun x -> Float.is_finite x && x >= 0.0)
    ~expect:"a non-negative finite number"

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"N" ~doc)

let duration_arg default =
  let doc = "Virtual seconds of measurement." in
  Arg.(value & opt positive_float default & info [ "duration" ] ~docv:"SECONDS" ~doc)

let probe_arg =
  let doc = "Probe spacing in seconds (the paper used 0.01)." in
  Arg.(value & opt positive_float 0.01 & info [ "probe-interval" ] ~docv:"SECONDS" ~doc)

let scenario_arg =
  let doc = "Enable the Fig. 4 dynamics (route change + instability)." in
  Arg.(value & flag & info [ "scenario" ] ~doc)

let policy_arg =
  let policies =
    [
      ("bgp-default", Policy.Bgp_default);
      ("static-gtt", Policy.Static 2);
      ("lowest-owd", Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 2.0 });
      ( "jitter-aware",
        Policy.Jitter_aware { beta = 5.0; hysteresis_ms = 1.0; min_dwell_s = 2.0 } );
    ]
  in
  let doc =
    Printf.sprintf "Path-selection policy: %s."
      (String.concat ", " (List.map fst policies))
  in
  Arg.(
    value
    & opt (enum policies)
        (Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 2.0 })
    & info [ "policy" ] ~docv:"POLICY" ~doc)

let domains_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "domains" ] ~docv:"N" ~doc:"Dataplane lanes, one OCaml domain each.")

let batch_arg =
  let capacity = Tango_dataplane.Batch.capacity in
  let batch_size =
    bounded Arg.int
      ~ok:(fun n -> n >= 1 && n <= capacity)
      ~expect:(Printf.sprintf "between 1 and %d" capacity)
  in
  Arg.(
    value & opt batch_size 64
    & info [ "batch" ] ~docv:"N"
        ~doc:"Packet-batch flush threshold, between 1 and 64.")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List the scenarios and exit.")

(* ------------------------------------------------------------------ *)
(* discover                                                            *)

let discover_run seed reverse max_paths =
  let topo = Vultr.build () in
  let engine = Tango_sim.Engine.create ~seed () in
  let net =
    Tango_bgp.Network.create ~configure:Pair.vultr_overrides topo engine
  in
  let origin, observer, name =
    if reverse then (Vultr.server_la, Vultr.server_ny, "NY -> LA")
    else (Vultr.server_ny, Vultr.server_la, "LA -> NY")
  in
  let result =
    Discovery.run ~net ~origin ~observer
      ~probe_prefix:(Tango_net.Prefix.of_string_exn "2001:db8:4c63::/48")
      ~max_paths ()
  in
  Printf.printf "direction %s: %d paths (%d BGP updates, %.1fs virtual)\n" name
    (List.length result.Discovery.paths)
    result.Discovery.messages result.Discovery.convergence_time_s;
  List.iter
    (fun (p : Discovery.path) ->
      Printf.printf "  %d %-7s floor %.1f ms  as-path [%s]  {%s}\n"
        p.Discovery.index p.Discovery.label p.Discovery.floor_owd_ms
        (Tango_bgp.As_path.to_string p.Discovery.as_path)
        (String.concat ","
           (List.map Tango_bgp.Community.to_string
              (Tango_bgp.Community.Set.elements p.Discovery.communities))))
    result.Discovery.paths

let discover seed reverse max_paths metrics prom =
  with_obs ~experiment:"discover" ~seed
    ~config:
      (Printf.sprintf "discover seed=%d reverse=%b max_paths=%d" seed reverse
         max_paths)
    metrics prom
    (fun () -> discover_run seed reverse max_paths)

let max_paths_arg =
  Arg.(
    value & opt positive_int 16
    & info [ "max-paths" ] ~docv:"N" ~doc:"Stop after N paths.")

let discover_cmd =
  let reverse =
    Arg.(value & flag & info [ "reverse" ] ~doc:"Discover NY -> LA instead.")
  in
  Cmd.v
    (Cmd.info "discover" ~doc:"Run the Fig. 3 iterative path discovery")
    Term.(const discover $ seed_arg $ reverse $ max_paths_arg $ metrics_arg $ prom_arg)

(* Both discovery directions in one run — experiment E1 / Figure 3. *)
let fig3 seed max_paths metrics prom =
  with_obs ~experiment:"fig3" ~seed
    ~config:(Printf.sprintf "fig3 seed=%d max_paths=%d" seed max_paths)
    metrics prom
    (fun () ->
      discover_run seed false max_paths;
      discover_run seed true max_paths)

let fig3_cmd =
  Cmd.v
    (Cmd.info "fig3"
       ~doc:"Run Fig. 3 path discovery in both directions (experiment E1)")
    Term.(const fig3 $ seed_arg $ max_paths_arg $ metrics_arg $ prom_arg)

(* ------------------------------------------------------------------ *)
(* measure                                                             *)

let measure seed duration probe_interval scenario csv config metrics prom =
  with_obs ~experiment:"measure" ~seed
    ~config:
      (Printf.sprintf "measure seed=%d duration=%g probe_interval=%g scenario=%b"
         seed duration probe_interval scenario)
    metrics prom
  @@ fun () ->
  let scenario =
    if scenario then Some (Tango_workload.Fig4.create ~horizon_s:duration ())
    else None
  in
  let pair, probe_interval, report_interval =
    match config with
    | None ->
        ( Pair.setup_vultr ~seed ?scenario ~clock_offset_la_ns:0L
            ~clock_offset_ny_ns:0L (),
          probe_interval, 0.1 )
    | Some path -> (
        match Config.parse_file path with
        | Error e ->
            Printf.eprintf "config error: %s\n" e;
            exit 2
        | Ok cfg -> (
            match Config.apply_vultr ~seed ?scenario cfg with
            | Error e ->
                Printf.eprintf "config error: %s\n" e;
                exit 2
            | Ok pair ->
                let probe, report = Config.measurement_args cfg in
                (pair, probe, report)))
  in
  Pair.start_measurement pair ~probe_interval_s:probe_interval
    ~report_interval_s:report_interval ~for_s:duration ();
  Pair.run_for pair (duration +. 1.0);
  let print_direction name pop labels =
    Printf.printf "%s:\n  %-8s %8s %8s %8s %8s %10s\n" name "path" "mean" "min"
      "p99" "jitter" "samples";
    List.iteri
      (fun path label ->
        let s = Series.stats (Pop.inbound_owd_series pop ~path) in
        Printf.printf "  %-8s %8.2f %8.2f %8.2f %8.4f %10d\n" label
          s.Stats.mean s.Stats.min s.Stats.p99
          (Pop.inbound_jitter_ms pop ~path)
          s.Stats.n)
      labels
  in
  print_direction "NY -> LA (measured at LA)" (Pair.pop_la pair)
    (List.map (fun p -> p.Discovery.label) (Pair.paths_to_la pair));
  print_direction "LA -> NY (measured at NY)" (Pair.pop_ny pair)
    (List.map (fun p -> p.Discovery.label) (Pair.paths_to_ny pair));
  match csv with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let labels = List.map (fun p -> p.Discovery.label) (Pair.paths_to_la pair) in
      let series =
        List.mapi
          (fun path _ ->
            Series.downsample (Pop.inbound_owd_series (Pair.pop_la pair) ~path)
              ~bucket_s:1.0)
          labels
      in
      let path = Filename.concat dir "owd_ny_to_la.csv" in
      Tango_telemetry.Export.aligned_to_file path ~labels series;
      Printf.printf "wrote %s\n" path

let measure_cmd =
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Write downsampled series as CSV into DIR.")
  in
  let config =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"FILE"
          ~doc:"Load a tango.conf deployment configuration (policies, clock \
                offsets, measurement cadence).")
  in
  Cmd.v
    (Cmd.info "measure" ~doc:"Run the one-way measurement plane")
    Term.(
      const measure $ seed_arg $ duration_arg 60.0 $ probe_arg $ scenario_arg
      $ csv $ config $ metrics_arg $ prom_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate seed duration policy rate_hz metrics prom =
  with_obs ~experiment:"simulate" ~seed
    ~config:
      (Printf.sprintf "simulate seed=%d duration=%g policy=%s rate=%g" seed
         duration (Policy.spec_to_string policy) rate_hz)
    metrics prom
  @@ fun () ->
  let scenario = Tango_workload.Fig4.create ~horizon_s:duration () in
  let pair =
    Pair.setup_vultr ~seed ~scenario ~policy_ny:policy ~clock_offset_la_ns:0L
      ~clock_offset_ny_ns:0L ()
  in
  let ny = Pair.pop_ny pair and la = Pair.pop_la pair in
  ignore
    (Pair.drive pair ~probe_interval_s:0.02 ~from:ny ~interval_s:(1.0 /. rate_hz)
       ~for_s:duration ());
  let app = Series.stats (Pop.app_latency_series la) in
  Printf.printf
    "policy %-12s  app packets %d  mean %.2f ms  p99 %.2f ms  max %.2f ms  switches %d\n"
    (Policy.spec_to_string policy)
    (Pop.app_received la)
    (app.Stats.mean *. 1000.0)
    (app.Stats.p99 *. 1000.0)
    (app.Stats.max *. 1000.0)
    (Pop.policy_switches ny)

let simulate_cmd =
  let rate =
    Arg.(
      value & opt positive_float 50.0
      & info [ "rate" ] ~docv:"HZ" ~doc:"Application packet rate.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the Fig. 4 scenario with application traffic and a policy")
    Term.(
      const simulate $ seed_arg $ duration_arg 120.0 $ policy_arg $ rate
      $ metrics_arg $ prom_arg)

(* ------------------------------------------------------------------ *)
(* overlay                                                             *)

let overlay seed metrics prom =
  with_obs ~experiment:"overlay" ~seed
    ~config:(Printf.sprintf "overlay seed=%d" seed)
    metrics prom
  @@ fun () ->
  let o = Overlay.setup_triangle ~seed () in
  (* Each pair's BGP default: the first path its discovery found. *)
  let owd ~src ~dst =
    match Pair.paths (Overlay.pair o) ~src ~dst with
    | first :: _ -> first.Discovery.floor_owd_ms
    | [] -> infinity
  in
  List.iter
    (fun (p : Overlay.plan) ->
      let route =
        match p.Overlay.route with
        | Overlay.Direct -> "direct"
        | Overlay.Relay hops ->
            "via " ^ String.concat "," (List.map Overlay.site_name hops)
      in
      Printf.printf "%-3s -> %-3s %-10s %6.1f ms (direct %.1f ms)\n"
        (Overlay.site_name p.Overlay.src) (Overlay.site_name p.Overlay.dst) route
        p.Overlay.owd_ms p.Overlay.direct_ms)
    (Overlay.plan_routes ~owd_ms:owd ~sites:3 ())

let overlay_cmd =
  Cmd.v
    (Cmd.info "overlay" ~doc:"Plan a Tango-of-N overlay (triangle topology)")
    Term.(const overlay $ seed_arg $ metrics_arg $ prom_arg)

(* ------------------------------------------------------------------ *)
(* faults                                                              *)

module F_spec = Tango_faults.Spec
module F_scenario = Tango_faults.Scenario
module F_inject = Tango_faults.Inject
module Ctrl = Tango_ctrl.Reconcile
module Ctrl_channel = Tango_ctrl.Channel

(* Whether the reconciler can repair what this fault breaks: it
   re-derives BGP state (routes, communities), not links or clocks. *)
let reconciler_repairs (spec : F_spec.t) =
  match spec.F_spec.kind with
  | F_spec.Bgp_withdraw | F_spec.Bgp_flap _ | F_spec.Community_drop -> true
  | F_spec.Blackhole | F_spec.Flap _ | F_spec.Brownout _
  | F_spec.Probe_starvation | F_spec.Clock_step _ | F_spec.Relay_kill
  | F_spec.Mesh_partition _ | F_spec.Relay_detour | F_spec.Relay_tamper _
  | F_spec.Relay_replay ->
      false

(* The built-in scenarios of one world: every fault of a mesh scenario
   targets a mesh, every fault of a pair scenario the pair. *)
let scenarios_for ~mesh =
  List.filter
    (fun (s : F_scenario.t) ->
      List.for_all
        (fun (spec : F_spec.t) -> F_spec.targets_mesh spec.F_spec.kind = mesh)
        s.F_scenario.specs)
    F_scenario.all

(* A [--scenario] value: a name from [scenarios_for ~mesh], so an
   unknown name, or one from the other world, is a usage error before
   the command prints anything. *)
let scenario_conv ~mesh =
  Arg.enum
    (List.map (fun (s : F_scenario.t) -> (s.F_scenario.name, s)) (scenarios_for ~mesh))

let faults_list () =
  Printf.printf "available fault scenarios:\n";
  Printf.printf "  %-15s %-12s %s\n" "name" "reconciler" "description";
  List.iter
    (fun (s : F_scenario.t) ->
      let reconciler =
        if List.exists reconciler_repairs s.F_scenario.specs then "repairs"
        else "no-op"
      in
      Printf.printf "  %-15s %-12s %s\n" s.F_scenario.name reconciler
        s.F_scenario.description)
    (scenarios_for ~mesh:false)

(* Recovery time, as the faults summary defines it: from the close of
   the last fault window ({!F_inject.last_off_s}) to the first app
   packet delivered at the receiver afterwards. *)
let print_recovery ~t0 ~receiver inj =
  let last_off = F_inject.last_off_s inj in
  if not (Float.is_finite last_off) then
    Printf.printf "  recovery: n/a (no fault window closed)\n"
  else
    let after =
      Series.between (Pop.app_latency_series receiver) ~t0:last_off ~t1:infinity
    in
    match Series.first_time after with
    | Some at ->
        let dt = at -. last_off in
        Printf.printf
          "  recovery: delivery restored %.3f s after last fault window \
           (t=%7.3f)\n"
          dt
          (last_off +. dt -. t0)
    | None ->
        Printf.printf
          "  recovery: delivery NOT restored after last fault window \
           (t=%7.3f)\n"
          (last_off -. t0)

let print_reconciler ~pair reconciler =
  match reconciler with
  | None -> Printf.printf "  reconciler: off\n"
  | Some r ->
      Printf.printf "  reconciler: armed (checks %d, budget %d msgs/epoch)\n"
        (Ctrl.checks r) (Ctrl.config r).Ctrl.budget_msgs;
      List.iter
        (fun dir ->
          let s = Ctrl.stats r dir in
          Printf.printf
            "    %-5s epochs %d (failed %d, truncated %d)  msgs last %d total \
             %d  last re-discovery %s  paths %d\n"
            (Ctrl.direction_to_string dir)
            s.Ctrl.epochs s.Ctrl.failed s.Ctrl.truncated s.Ctrl.last_msgs
            s.Ctrl.total_msgs
            (if Float.is_finite s.Ctrl.last_recovery_s then
               Printf.sprintf "%.3f s" s.Ctrl.last_recovery_s
             else "n/a")
            s.Ctrl.paths)
        [ Ctrl.To_ny; Ctrl.To_la ];
      (match Ctrl.channel r with
      | None -> Printf.printf "    channel: off\n"
      | Some ch ->
          List.iter
            (fun (name, pop) ->
              Printf.printf
                "    channel %-3s heartbeats sent %d received %d  peer %s  \
                 losses %d recoveries %d\n"
                name
                (Ctrl_channel.heartbeats_sent ch pop)
                (Ctrl_channel.heartbeats_received ch pop)
                (if Ctrl_channel.peer_alive ch pop then "alive" else "lost")
                (Ctrl_channel.losses ch pop)
                (Ctrl_channel.recoveries ch pop))
            [ ("LA", Pair.pop_la pair); ("NY", Pair.pop_ny pair) ])

(* The pair-fault run [faults] and [reconcile] share: set up the Vultr
   pair, arm the scenario, then the reconciler if [arm_reconciler]
   returns one, drive probes and LA->NY app traffic for [duration], and
   print the timeline and the common summary lines. [head] prints the
   command's own summary lines before the reconciler line, [tail] its
   lines after the app summary. *)
let pair_fault_run ~(sc : F_scenario.t) ~seed ~duration ~rate_hz ~backoff
    ~arm_reconciler ~head ~tail =
  let pair = Pair.setup_vultr ~seed ~readmit_backoff_s:backoff () in
  let la = Pair.pop_la pair and ny = Pair.pop_ny pair in
  let t0 = Tango_sim.Engine.now (Pair.engine pair) in
  Printf.printf "scenario %s: %s\n" sc.F_scenario.name sc.F_scenario.description;
  List.iter
    (fun spec -> Printf.printf "  armed: %s\n" (F_spec.to_string spec))
    sc.F_scenario.specs;
  let inj = F_inject.arm ~pair ~seed sc.F_scenario.specs in
  let reconciler = arm_reconciler ~pair ~until_s:(t0 +. duration) in
  let app_sent =
    Pair.drive pair ~probe_interval_s:0.01 ~dead_after_probes:10 ~from:la
      ~interval_s:(1.0 /. rate_hz) ~for_s:duration ()
  in
  Printf.printf "timeline (t relative to arming):\n";
  List.iter
    (fun (at, what) -> Printf.printf "  t=%7.3f %s\n" (at -. t0) what)
    (F_inject.timeline inj);
  let app = Series.stats (Pop.app_latency_series ny) in
  Printf.printf "summary:\n";
  head ~pair inj;
  print_reconciler ~pair reconciler;
  print_recovery ~t0 ~receiver:ny inj;
  Printf.printf "  app LA->NY: sent %d received %d  mean %.2f ms  p99 %.2f ms\n"
    app_sent (Pop.app_received ny)
    (app.Stats.mean *. 1000.0)
    (app.Stats.p99 *. 1000.0);
  tail ~pair

let faults_run sc seed duration backoff rate_hz with_reconciler =
  let arm_reconciler ~pair ~until_s =
    if with_reconciler then Some (Ctrl.arm ~pair ~seed ~until_s ()) else None
  in
  let head ~pair inj =
    let la = Pair.pop_la pair and ny = Pair.pop_ny pair in
    Printf.printf "  faults injected %d, path switches inside fault windows %d\n"
      (F_inject.injected inj)
      (F_inject.switches_during inj);
    Printf.printf "  LA policy: switches %d, degraded episodes %d%s\n"
      (Pop.policy_switches la)
      (Policy.degraded_episodes (Pop.policy la))
      (if Pop.policy_degraded la then " (still degraded)" else "");
    Printf.printf "  NY policy: switches %d, degraded episodes %d\n"
      (Pop.policy_switches ny)
      (Policy.degraded_episodes (Pop.policy ny))
  in
  let tail ~pair =
    let la = Pair.pop_la pair in
    let fabric = Pair.fabric pair in
    Printf.printf "  fabric: sent %d delivered %d dropped %d\n"
      (Tango_dataplane.Fabric.sent fabric)
      (Tango_dataplane.Fabric.delivered fabric)
      (Tango_dataplane.Fabric.dropped fabric);
    Printf.printf "  LA outbound paths (peer-reported):\n";
    let labels =
      List.map (fun p -> p.Discovery.label) (Pair.paths_to_ny pair)
    in
    Array.iteri
      (fun i (s : Policy.path_stats) ->
        let label = try List.nth labels i with _ -> "?" in
        Printf.printf
          "    %d %-7s owd %8.2f ms  loss %.3f  age %6.2f s  samples %d%s\n" i
          label s.Policy.owd_ewma_ms s.Policy.loss_rate s.Policy.age_s
          s.Policy.samples
          (if
             Policy.readmit_banned (Pop.policy la) ~path:i
               ~now_s:(Tango_sim.Engine.now (Pair.engine pair))
           then "  [banned]"
           else ""))
      (Pop.outbound_stats la)
  in
  pair_fault_run ~sc ~seed ~duration ~rate_hz ~backoff ~arm_reconciler ~head
    ~tail

let faults (sc : F_scenario.t) seed duration backoff rate_hz reconcile_flag
    list_flag metrics prom =
  if list_flag then faults_list ()
  else
    with_obs ~experiment:"faults" ~seed
      ~config:
        (Printf.sprintf
           "faults scenario=%s seed=%d duration=%g backoff=%g reconcile=%b"
           sc.F_scenario.name seed duration backoff reconcile_flag)
      metrics prom
      (fun () -> faults_run sc seed duration backoff rate_hz reconcile_flag)

let pair_scenario_arg default =
  Arg.(
    value
    & opt (scenario_conv ~mesh:false) (F_scenario.get default)
    & info [ "scenario" ] ~docv:"NAME" ~doc:"Named fault scenario (see --list).")

let rate_hz_arg =
  Arg.(
    value & opt positive_float 50.0
    & info [ "rate" ] ~docv:"HZ" ~doc:"Application packet rate LA -> NY.")

let faults_cmd =
  let backoff =
    Arg.(
      value & opt non_negative_float 0.5
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base re-admission backoff for flap damping (0 disables; \
             doubles per failure, capped at 30 s).")
  in
  let reconcile_flag =
    Arg.(
      value & flag
      & info [ "reconcile" ]
          ~doc:
            "Arm the control-plane reconciler (churn watch, budgeted \
             re-discovery, in-band pair channel) alongside the faults.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run a named fault-injection scenario against the two-site pair")
    Term.(
      const faults $ pair_scenario_arg "blackhole" $ seed_arg
      $ duration_arg 30.0 $ backoff $ rate_hz_arg $ reconcile_flag $ list_arg
      $ metrics_arg $ prom_arg)

(* ------------------------------------------------------------------ *)
(* reconcile                                                           *)

let reconcile_run sc seed duration rate_hz budget cadence no_channel =
  let config =
    { Ctrl.default_config with Ctrl.budget_msgs = budget; Ctrl.cadence_s = cadence }
  in
  let arm_reconciler ~pair ~until_s =
    Some
      (Ctrl.arm ~pair ~config ~seed ~with_channel:(not no_channel) ~until_s ())
  in
  let head ~pair:_ inj =
    Printf.printf "  faults injected %d\n" (F_inject.injected inj)
  in
  let tail ~pair =
    Printf.printf "  path tables: LA->NY %d paths (epoch %d), NY->LA %d paths \
                   (epoch %d)\n"
      (List.length (Pair.paths_to_ny pair))
      (Pop.table_epoch (Pair.pop_la pair))
      (List.length (Pair.paths_to_la pair))
      (Pop.table_epoch (Pair.pop_ny pair))
  in
  pair_fault_run ~sc ~seed ~duration ~rate_hz ~backoff:0.5 ~arm_reconciler
    ~head ~tail

let reconcile (sc : F_scenario.t) seed duration rate_hz budget cadence
    no_channel list_flag metrics prom =
  if list_flag then faults_list ()
  else
    with_obs ~experiment:"reconcile" ~seed
      ~config:
        (Printf.sprintf
           "reconcile scenario=%s seed=%d duration=%g budget=%d cadence=%g \
            channel=%b"
           sc.F_scenario.name seed duration budget cadence (not no_channel))
      metrics prom
      (fun () ->
        reconcile_run sc seed duration rate_hz budget cadence no_channel)

let reconcile_cmd =
  let budget =
    Arg.(
      value & opt positive_int Ctrl.default_config.Ctrl.budget_msgs
      & info [ "budget" ] ~docv:"MSGS"
          ~doc:"Hard BGP-message budget per re-discovery epoch.")
  in
  let cadence =
    Arg.(
      value & opt positive_float Ctrl.default_config.Ctrl.cadence_s
      & info [ "cadence" ] ~docv:"SECONDS"
          ~doc:"Periodic churn-check interval.")
  in
  let no_channel =
    Arg.(
      value & flag
      & info [ "no-channel" ]
          ~doc:"Run without the in-band pair control channel.")
  in
  Cmd.v
    (Cmd.info "reconcile"
       ~doc:
         "Run a fault scenario with the control-plane reconciler armed: \
          churn detection, budgeted re-discovery and the in-band pair \
          channel")
    Term.(
      const reconcile $ pair_scenario_arg "bgp-flap" $ seed_arg
      $ duration_arg 30.0 $ rate_hz_arg $ budget $ cadence $ no_channel
      $ list_arg $ metrics_arg $ prom_arg)

(* ------------------------------------------------------------------ *)
(* throughput                                                          *)

let throughput domains batch flows generations seed fingerprint_only metrics
    prom =
  with_obs ~experiment:"throughput" ~seed
    ~config:
      (Printf.sprintf
         "throughput domains=%d batch=%d flows=%d generations=%d seed=%d"
         domains batch flows generations seed)
    metrics prom
  @@ fun () ->
  let r = Throughput.run ~domains ~batch ~flows ~generations ~seed () in
  Throughput.print_summary ~timing:(not fingerprint_only) r

let throughput_cmd =
  let flows =
    Arg.(value & opt positive_int 512 & info [ "flows" ] ~docv:"N" ~doc:"Concurrent flows.")
  in
  let generations =
    Arg.(
      value & opt positive_int 2000
      & info [ "generations" ] ~docv:"N"
          ~doc:"Packets per flow (one per 1 ms virtual generation).")
  in
  let fingerprint_flag =
    Arg.(
      value & flag
      & info [ "fingerprint" ]
          ~doc:
            "Print only the deterministic summary (no wall-clock/pps \
             line), so runs at different --domains/--batch settings are \
             byte-comparable.")
  in
  Cmd.v
    (Cmd.info "throughput"
       ~doc:
         "Run the multicore batched dataplane: flow-sharded domain lanes, \
          64-packet batches, deterministic merge")
    Term.(
      const throughput $ domains_arg $ batch_arg $ flows $ generations $ seed_arg
      $ fingerprint_flag $ metrics_arg $ prom_arg)

(* ------------------------------------------------------------------ *)
(* load                                                                *)

module Wload = Tango_workload.Load

let load_one ~domains ~batch ~flows ~generations ~seed ~cache ~ceiling
    ~idle_gens ~fingerprint_only =
  let plan = Wload.plan (Wload.default_config ~flows ~generations ~seed ()) in
  (* --cache 0 sizes the per-lane cache to an eighth of the flow count
     (so elephants and the active edge of the wave fit while the long
     tail contends), a negative value disables the bound. *)
  let cache_capacity =
    if cache > 0 then Some cache
    else if cache = 0 then Some (max 1024 (flows / 8))
    else None
  in
  let r =
    Throughput.run ~domains ~batch ~seed ~plan ?cache_capacity
      ~tracker_ceiling:ceiling ~tracker_idle_gens:idle_gens ()
  in
  Throughput.print_load_summary ~timing:(not fingerprint_only) plan r

let load domains batch flows generations seed cache ceiling idle_gens sweep
    fingerprint_only metrics prom =
  with_obs ~experiment:"load" ~seed
    ~config:
      (Printf.sprintf
         "load domains=%d batch=%d flows=%d generations=%d seed=%d cache=%d \
          ceiling=%d idle_gens=%d sweep=%b"
         domains batch flows generations seed cache ceiling idle_gens sweep)
    metrics prom
  @@ fun () ->
  let points = if sweep then [ 1_000; 10_000; 100_000; 1_000_000 ] else [ flows ] in
  List.iter
    (fun flows ->
      load_one ~domains ~batch ~flows ~generations ~seed ~cache ~ceiling
        ~idle_gens ~fingerprint_only)
    points

let load_cmd =
  let flows =
    Arg.(
      value & opt positive_int 10_000
      & info [ "flows" ] ~docv:"N" ~doc:"Concurrent flows (ignored with --sweep).")
  in
  let generations =
    Arg.(
      value & opt positive_int 400
      & info [ "generations" ] ~docv:"N"
          ~doc:"Workload horizon in 1 ms virtual generations.")
  in
  let cache =
    Arg.(
      value & opt int 0
      & info [ "cache" ] ~docv:"N"
          ~doc:
            "Per-lane flow-cache capacity (clock-hand eviction). 0 sizes it \
             to flows/8 (min 1024); a negative value sizes it to the flow \
             count, so it never evicts. Write a negative value with an \
             equals sign, as in $(b,--cache=-1): a separate $(b,-1) is read \
             as an option.")
  in
  let ceiling =
    Arg.(
      value & opt non_negative_int 0
      & info [ "ceiling" ] ~docv:"N"
          ~doc:
            "Per-lane advisory ceiling on resident tracker state (0 = none); \
             the report shows the measured peak either way.")
  in
  let idle_gens =
    Arg.(
      value & opt non_negative_int 0
      & info [ "idle-gens" ] ~docv:"N"
          ~doc:
            "Expire a flow's sequence tracker after it has been idle for \
             more than N virtual generations, freeing its \
             provisional-loss state (0 = aging off).")
  in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Run the full flow-count sweep 10^3, 10^4, 10^5, 10^6.")
  in
  let fingerprint_flag =
    Arg.(
      value & flag
      & info [ "fingerprint" ]
          ~doc:
            "Print only the deterministic summary (no wall-clock/pps line), \
             so repeat runs at fixed settings are byte-comparable.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive the million-flow workload engine (heavy-tailed sizes, \
          diurnal waves, RPC/bulk/CBR mix) through the batched multicore \
          dataplane")
    Term.(
      const load $ domains_arg $ batch_arg $ flows $ generations $ seed_arg $ cache
      $ ceiling $ idle_gens $ sweep $ fingerprint_flag $ metrics_arg
      $ prom_arg)

(* ------------------------------------------------------------------ *)
(* mesh                                                                *)

module Mesh = Tango_mesh.Mesh

let mesh_n ~pops ~trees ~seed ~scenario ~fingerprint_only ~duration ~attest
    ~quarantine_s ~suspect_threshold =
  let specs =
    match scenario with None -> [] | Some sc -> sc.F_scenario.specs
  in
  let r =
    Mesh.run ~pops ~trees ~seed ~duration_s:duration ~specs ~attest
      ~quarantine_s ~suspect_threshold ()
  in
  if fingerprint_only then
    Printf.printf "mesh pops=%d trees=%d seed=%d delivered=%d fp=%s\n"
      r.Mesh.pops r.Mesh.trees seed r.Mesh.delivered r.Mesh.fingerprint
  else begin
    Printf.printf "mesh: %d PoPs, %d edges, %d trees (diversity %.2f), %d flows\n"
      r.Mesh.pops r.Mesh.edges r.Mesh.trees r.Mesh.diversity r.Mesh.flows;
    Printf.printf
      "traffic: sent %d delivered %d dropped %d (reroutes %d, max rotations %d)\n"
      r.Mesh.sent r.Mesh.delivered r.Mesh.dropped r.Mesh.reroutes
      r.Mesh.max_rotations;
    if r.Mesh.killed >= 0 then
      Printf.printf
        "relay-kill: PoP %d, %d flows affected, detect %.1f ms, recovery %.1f \
         ms, %d unrecovered, %d discoveries after fault\n"
        r.Mesh.killed r.Mesh.affected_flows r.Mesh.detect_ms
        r.Mesh.recovery_ms r.Mesh.unrecovered r.Mesh.discovery_after_fault
    else if r.Mesh.misbehaving >= 0 then
      Printf.printf
        "misbehavior: %d flows transiting PoP %d, %d discoveries after onset\n"
        r.Mesh.affected_flows r.Mesh.misbehaving
        r.Mesh.discovery_after_fault
    else if r.Mesh.affected_flows > 0 then
      Printf.printf
        "partition: %d flows affected, recovery %.1f ms, %d unrecovered, %d \
         discoveries after fault\n"
        r.Mesh.affected_flows r.Mesh.recovery_ms r.Mesh.unrecovered
        r.Mesh.discovery_after_fault;
    Printf.printf
      "control: %d gossip msgs, %d hellos, convergence %.1f ms, %d distinct \
       digests\n"
      r.Mesh.gossip_msgs r.Mesh.hello_msgs r.Mesh.convergence_ms
      r.Mesh.distinct_digests;
    if r.Mesh.attest then begin
      Printf.printf
        "attest: rejected %d (wrong-path %d truncated %d replayed %d forged \
         %d), excused %d\n"
        r.Mesh.rejected r.Mesh.wrong_path r.Mesh.truncated r.Mesh.replayed
        r.Mesh.forged r.Mesh.excused;
      if r.Mesh.misbehaving >= 0 then
        Printf.printf
          "byzantine: PoP %d, first verdict %.1f ms after onset, target \
           quarantined %b\n"
          r.Mesh.misbehaving r.Mesh.first_verdict_ms
          r.Mesh.quarantined_target;
      Printf.printf
        "quarantine: %d applied, %d readmitted, %d false (non-target)\n"
        r.Mesh.quarantines r.Mesh.readmissions r.Mesh.false_quarantines
    end;
    Printf.printf "fingerprint: %s\n" r.Mesh.fingerprint
  end

let mesh_run seed duration pops trees scenario fingerprint_only attest quarantine_s
    suspect_threshold metrics prom =
  if pops > 0 then
    with_obs ~experiment:"mesh" ~seed
      ~config:
        (Printf.sprintf "mesh pops=%d trees=%d seed=%d duration=%g" pops trees
           seed duration)
      metrics prom
    @@ fun () ->
    mesh_n ~pops ~trees ~seed ~scenario ~fingerprint_only ~duration ~attest
      ~quarantine_s ~suspect_threshold
  else
  with_obs ~experiment:"mesh" ~seed
    ~config:(Printf.sprintf "mesh seed=%d duration=%g" seed duration)
    metrics prom
  @@ fun () ->
  let o = Overlay.setup_triangle ~seed () in
  let pair = Overlay.pair o in
  Printf.printf "three-site mesh up; measuring for %.0fs...\n%!" duration;
  Pair.start_measurement pair ~for_s:duration ();
  Pair.run_for pair (duration /. 2.0);
  Overlay.replan o;
  for _ = 1 to 200 do
    Overlay.send_app o ~src:2 ~dst:0 ()
  done;
  Pair.run_for pair ((duration /. 2.0) +. 1.0);
  for src = 0 to 2 do
    for dst = 0 to 2 do
      if src <> dst then begin
        let route =
          match Overlay.route o ~src ~dst with
          | Overlay.Direct -> "direct"
          | Overlay.Relay hops ->
              "via " ^ String.concat "," (List.map Overlay.site_name hops)
        in
        Printf.printf "%-3s -> %-3s %-10s measured %.1f ms\n"
          (Overlay.site_name src) (Overlay.site_name dst) route
          (Overlay.measured_owd_ms o ~src ~dst)
      end
    done
  done;
  let lat = Overlay.app_latency_at o ~site:0 in
  Printf.printf
    "CHI->LA app traffic: %d delivered (relayed via NY: %d), p50 %.1f ms\n"
    (Overlay.app_received_at o ~site:0)
    (Overlay.transited_at o ~site:1)
    (lat.Tango_sim.Stats.p50 *. 1000.0)

(* A mesh fault scenario, attestation and the fingerprint act on the
   N-PoP mesh only. *)
let mesh seed duration pops trees scenario fingerprint_only attest quarantine_s
    suspect_threshold metrics prom =
  if pops = 0 && (Option.is_some scenario || attest || fingerprint_only) then
    `Error (true, "--scenario, --attest and --fingerprint need --pops")
  else
    `Ok
      (mesh_run seed duration pops trees scenario fingerprint_only attest
         quarantine_s suspect_threshold metrics prom)

let mesh_cmd =
  let pops =
    Arg.(
      value
      & opt (bounded int ~ok:(fun n -> n = 0 || n >= 2) ~expect:"0 or at least 2") 0
      & info [ "pops" ] ~docv:"N"
          ~doc:
            "Host an $(docv)-PoP relay mesh in one process (flat PoP-indexed \
             state, shared event queue). 0 runs the three-site live \
             overlay.")
  in
  let trees =
    Arg.(
      value & opt positive_int 3
      & info [ "trees" ] ~docv:"K"
          ~doc:"Precomputed arborescences per destination (O(1) failover).")
  in
  let scenario =
    Arg.(
      value
      & opt (some (scenario_conv ~mesh:true)) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            ("Arm a mesh fault scenario: "
            ^ doc_alts
                (List.map
                   (fun (s : F_scenario.t) -> s.F_scenario.name)
                   (scenarios_for ~mesh:true))
            ^ ". Needs --pops."))
  in
  let fingerprint_flag =
    Arg.(
      value & flag
      & info [ "fingerprint" ]
          ~doc:
            "Print only the one-line deterministic delivery fingerprint. \
             Needs --pops.")
  in
  let attest_flag =
    Arg.(
      value & flag
      & info [ "attest" ]
          ~doc:
            "Verifiable forwarding: stamp per-hop digest chains, judge every \
             delivery against the committed route, and quarantine convicted \
             relays. Needs --pops.")
  in
  let quarantine_s =
    Arg.(
      value & opt positive_float 2.0
      & info [ "quarantine-s" ] ~docv:"SECONDS"
          ~doc:
            "First quarantine duration for a convicted relay (doubles per \
             episode, capped at 60 s).")
  in
  let suspect_threshold =
    Arg.(
      value & opt positive_int 4
      & info [ "suspect-threshold" ] ~docv:"N"
          ~doc:
            "Unlocalized bad verdicts a route intermediate accumulates before \
             it is quarantined on suspicion.")
  in
  Cmd.v
    (Cmd.info "mesh" ~doc:"Run the Tango-of-N overlay (triangle or N-PoP mesh)")
    Term.(
      ret
        (const mesh $ seed_arg $ duration_arg 20.0 $ pops $ trees $ scenario
       $ fingerprint_flag $ attest_flag $ quarantine_s $ suspect_threshold
       $ metrics_arg $ prom_arg))

let () =
  let info =
    Cmd.info "tango" ~version:"1.0.0"
      ~doc:"Cooperative edge-to-edge routing (HotNets '22 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            discover_cmd;
            fig3_cmd;
            measure_cmd;
            simulate_cmd;
            overlay_cmd;
            mesh_cmd;
            faults_cmd;
            reconcile_cmd;
            throughput_cmd;
            load_cmd;
          ]))
