(* Tests for lib/ctrl: control-plane reconciliation.

   Covers the PR's acceptance surface end to end:
   - discovery hygiene: no residual probe-prefix state in any speaker
     table after a discovery run, under both suppression mechanisms,
     plus qcheck invariants over the discovered tables;
   - data-plane loss and bounded recovery: BGP churn scenarios break
     delivery without the reconciler and recover in bounded virtual
     time with it armed, byte-deterministically across seeds;
   - budget discipline: no epoch ever spends more BGP messages than its
     budget, and a starved budget truncates-and-retries instead of
     overrunning;
   - the in-band channel: a severed pair drives exactly one peer-loss
     episode (pinned unilateral mode) and one recovery. *)

open Tango
module Engine = Tango_sim.Engine
module Vultr = Tango_topo.Vultr
module Network = Tango_bgp.Network
module Community = Tango_bgp.Community
module Prefix = Tango_net.Prefix
module Series = Tango_telemetry.Series
module Fabric = Tango_dataplane.Fabric
module F_scenario = Tango_faults.Scenario
module F_inject = Tango_faults.Inject
module Reconcile = Tango_ctrl.Reconcile
module Channel = Tango_ctrl.Channel
module Watch = Tango_ctrl.Watch

let fresh_net ~seed =
  let topo = Vultr.build () in
  let engine = Engine.create ~seed () in
  Network.create ~configure:Pair.vultr_overrides topo engine

(* A probe subnet index no other subsystem uses (Pair takes 16*100,
   experiments 16*96..99, the reconciler 16*94/95). *)
let probe = Prefix.subnet Addressing.default_block 16 (16 * 93)

(* ------------------------------------------------------------------ *)
(* Satellite: discovery leaves no probe-prefix residue                  *)

let test_no_probe_residue () =
  List.iter
    (fun (name, mechanism) ->
      List.iter
        (fun seed ->
          let net = fresh_net ~seed in
          let result =
            Discovery.run ~net ~origin:Vultr.server_ny
              ~observer:Vultr.server_la ~probe_prefix:probe ~mechanism ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d found paths" name seed)
            true
            (List.length result.Discovery.paths > 0);
          Alcotest.(check (list int))
            (Printf.sprintf "%s seed %d residual" name seed)
            []
            (Network.residual_nodes net probe))
        [ 1; 7; 42 ])
    [ ("communities", `Communities); ("poisoning", `Poisoning) ]

(* ------------------------------------------------------------------ *)
(* Satellite: qcheck invariants over discovered tables                  *)

let discovery_invariants =
  QCheck.Test.make ~name:"discovery table invariants" ~count:8
    QCheck.(pair (int_range 1 1000) (int_range 2 8))
    (fun (seed, max_paths) ->
      let net = fresh_net ~seed in
      let r =
        Discovery.run ~net ~origin:Vultr.server_ny ~observer:Vultr.server_la
          ~probe_prefix:probe ~max_paths ()
      in
      let paths = r.Discovery.paths in
      if paths = [] then QCheck.Test.fail_report "no paths discovered";
      (* index records discovery order. *)
      List.iteri
        (fun i (p : Discovery.path) ->
          if p.Discovery.index <> i then
            QCheck.Test.fail_reportf "path at position %d has index %d" i
              p.Discovery.index)
        paths;
      (* every delay floor is a real measurement. *)
      List.iter
        (fun (p : Discovery.path) ->
          if not (Float.is_finite p.Discovery.floor_owd_ms) then
            QCheck.Test.fail_reportf "path %d floor_owd_ms not finite"
              p.Discovery.index)
        paths;
      (* suppression sets are pairwise distinct — each iteration must
         have suppressed strictly more than the one before. *)
      let rec distinct = function
        | [] -> true
        | (p : Discovery.path) :: rest ->
            List.for_all
              (fun (q : Discovery.path) ->
                not
                  (Community.Set.equal p.Discovery.communities
                     q.Discovery.communities))
              rest
            && distinct rest
      in
      distinct paths)

(* ------------------------------------------------------------------ *)
(* Shared churn-run harness                                             *)

let tunnel_endpoint_routable pair ~path =
  let la = Pair.pop_la pair in
  let addr = Addressing.tunnel_endpoint (Pop.remote_plan la) ~path in
  match
    Network.forwarding_path (Pair.network pair) ~from_node:(Pop.node la) addr
  with
  | Some _ -> true
  | None -> false

(* Delivery-restoration latency: close of the last fault window to the
   first app packet delivered at the receiver afterwards. *)
let recovery_after ~inj ~receiver =
  let last_off = F_inject.last_off_s inj in
  if not (Float.is_finite last_off) then None
  else
    Series.fold (Pop.app_latency_series receiver) ~init:None
      ~f:(fun acc ~time ~value:_ ->
        match acc with
        | Some _ -> acc
        | None -> if time >= last_off then Some (time -. last_off) else None)

type churn_run = {
  pair : Pair.t;
  inj : F_inject.t;
  reconciler : Reconcile.t option;
  sent : int;
}

let run_churn ~scenario ~seed ?config ?(duration = 20.0) ~with_reconciler () =
  let sc = F_scenario.get scenario in
  let pair = Pair.setup_vultr ~seed ~readmit_backoff_s:0.5 () in
  let engine = Pair.engine pair in
  let la = Pair.pop_la pair in
  let t0 = Engine.now engine in
  let inj = F_inject.arm ~pair ~seed sc.F_scenario.specs in
  let reconciler =
    if with_reconciler then
      Some (Reconcile.arm ~pair ?config ~seed ~until_s:(t0 +. duration) ())
    else None
  in
  let sent = ref 0 in
  Pair.start_measurement pair ~probe_interval_s:0.01 ~dead_after_probes:10
    ~for_s:duration ();
  Tango_workload.Traffic.periodic engine ~interval_s:0.02
    ~until_s:(t0 +. duration) (fun _ ->
      incr sent;
      ignore (Pop.send_app la ()));
  Pair.run_for pair (duration +. 1.0);
  { pair; inj; reconciler; sent = !sent }

(* Everything observable a churn run produced, as one comparable string
   (nan prints identically, so a never-recovered run still compares). *)
let fingerprint { pair; inj; reconciler; sent } =
  let ny = Pair.pop_ny pair and la = Pair.pop_la pair in
  let rec_part =
    match reconciler with
    | None -> "reconciler=off"
    | Some r ->
        let s = Reconcile.stats r Reconcile.To_ny in
        Printf.sprintf
          "epochs=%d failed=%d trunc=%d last=%d total=%d rec=%.6f paths=%d \
           checks=%d"
          s.Reconcile.epochs s.Reconcile.failed s.Reconcile.truncated
          s.Reconcile.last_msgs s.Reconcile.total_msgs
          s.Reconcile.last_recovery_s s.Reconcile.paths (Reconcile.checks r)
  in
  Printf.sprintf
    "%s injected=%d delivered=%d/%d switches=%d tepoch=%d recovery=%s" rec_part
    (F_inject.injected inj) (Pop.app_received ny) sent
    (Pop.policy_switches la) (Pop.table_epoch la)
    (match recovery_after ~inj ~receiver:ny with
    | Some dt -> Printf.sprintf "%.6f" dt
    | None -> "none")

(* ------------------------------------------------------------------ *)
(* Satellite: churn breaks the data plane without the reconciler...     *)

let test_withdraw_breaks_data_plane () =
  let sc = F_scenario.get "bgp-withdraw" in
  let pair = Pair.setup_vultr ~seed:42 ~readmit_backoff_s:0.5 () in
  let _inj = F_inject.arm ~pair ~seed:42 sc.F_scenario.specs in
  Pair.start_measurement pair ~probe_interval_s:0.01 ~dead_after_probes:10
    ~for_s:20.0 ();
  Pair.run_for pair 10.0;
  (* Mid-window (fault active 5s..15s): the withdrawn tunnel prefix is
     unroutable and nothing re-announces it. *)
  Alcotest.(check bool)
    "withdrawn prefix unroutable mid-window" false
    (tunnel_endpoint_routable pair ~path:2)

let test_community_drop_moves_path () =
  let sc = F_scenario.get "community-drop" in
  let pair = Pair.setup_vultr ~seed:42 ~readmit_backoff_s:0.5 () in
  let la = Pair.pop_la pair in
  let watch =
    Watch.create ~net:(Pair.network pair) ~observer:(Pop.node la)
      ~prefixes:(Pop.remote_plan la).Addressing.tunnel_prefixes
  in
  let _inj = F_inject.arm ~pair ~seed:42 sc.F_scenario.specs in
  Pair.start_measurement pair ~probe_interval_s:0.01 ~dead_after_probes:10
    ~for_s:20.0 ();
  Pair.run_for pair 10.0;
  (* Mid-window: path 1 lost its pinning communities, so its prefix now
     rides a different wide-area route — Moved, not Gone. *)
  Alcotest.(check bool)
    "community-drop classifies Moved" true
    ((Watch.check watch).(1) = Watch.Moved)

(* ------------------------------------------------------------------ *)
(* ...and the reconciler repairs it in bounded virtual time             *)

let test_withdraw_recovers_with_reconciler () =
  let sc = F_scenario.get "bgp-withdraw" in
  let pair = Pair.setup_vultr ~seed:42 ~readmit_backoff_s:0.5 () in
  let engine = Pair.engine pair in
  let t0 = Engine.now engine in
  let _inj = F_inject.arm ~pair ~seed:42 sc.F_scenario.specs in
  let r = Reconcile.arm ~pair ~seed:42 ~until_s:(t0 +. 20.0) () in
  Pair.start_measurement pair ~probe_interval_s:0.01 ~dead_after_probes:10
    ~for_s:20.0 ();
  Pair.run_for pair 10.0;
  (* Same mid-window instant as the no-reconciler twin: the epoch's
     re-announcement has already restored the route, well before the
     fault window even closes. *)
  Alcotest.(check bool)
    "withdrawn prefix re-announced mid-window" true
    (tunnel_endpoint_routable pair ~path:2);
  let s = Reconcile.stats r Reconcile.To_ny in
  Alcotest.(check bool) "ran an epoch" true (s.Reconcile.epochs >= 1);
  Alcotest.(check bool)
    "re-discovery bounded (< 5s virtual)" true
    (Float.is_finite s.Reconcile.last_recovery_s
    && s.Reconcile.last_recovery_s < 5.0)

let bounded_recovery_scenarios = [ "bgp-withdraw"; "community-drop" ]

let test_churn_recovery_bounded () =
  List.iter
    (fun scenario ->
      List.iter
        (fun seed ->
          let run = run_churn ~scenario ~seed ~with_reconciler:true () in
          let ny = Pair.pop_ny run.pair in
          let r = Option.get run.reconciler in
          let s = Reconcile.stats r Reconcile.To_ny in
          let name what =
            Printf.sprintf "%s seed %d: %s" scenario seed what
          in
          Alcotest.(check bool) (name "epochs >= 1") true (s.Reconcile.epochs >= 1);
          Alcotest.(check int) (name "no failed epochs") 0 s.Reconcile.failed;
          (match recovery_after ~inj:run.inj ~receiver:ny with
          | Some dt ->
              Alcotest.(check bool)
                (name "delivery restored within 1s of last window")
                true (dt <= 1.0)
          | None -> Alcotest.fail (name "delivery never restored"));
          Alcotest.(check bool)
            (name "most app traffic delivered")
            true
            (10 * Pop.app_received ny >= 9 * run.sent))
        [ 1; 7; 42 ])
    bounded_recovery_scenarios

(* Byte-determinism: the whole reconciled run — epochs, message spend,
   recovery latency, delivery — replays identically from the seed. *)
let test_churn_determinism () =
  List.iter
    (fun scenario ->
      List.iter
        (fun seed ->
          let a =
            fingerprint (run_churn ~scenario ~seed ~with_reconciler:true ())
          in
          let b =
            fingerprint (run_churn ~scenario ~seed ~with_reconciler:true ())
          in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d deterministic" scenario seed)
            a b)
        [ 1; 7; 42 ])
    bounded_recovery_scenarios

(* ------------------------------------------------------------------ *)
(* Acceptance: bgp-flap under the reconciler                            *)

let test_flap_acceptance () =
  let run = run_churn ~scenario:"bgp-flap" ~seed:42 ~duration:30.0
      ~with_reconciler:true ()
  in
  let ny = Pair.pop_ny run.pair in
  let r = Option.get run.reconciler in
  let budget = (Reconcile.config r).Reconcile.budget_msgs in
  let s = Reconcile.stats r Reconcile.To_ny in
  Alcotest.(check bool) "flap drove re-discovery" true (s.Reconcile.epochs >= 1);
  Alcotest.(check bool)
    "latest epoch within budget" true
    (s.Reconcile.last_msgs <= budget);
  Alcotest.(check bool)
    "every epoch within budget" true
    (s.Reconcile.total_msgs <= s.Reconcile.epochs * budget);
  Alcotest.(check bool)
    "re-discovery virtual time bounded" true
    (Float.is_finite s.Reconcile.last_recovery_s
    && s.Reconcile.last_recovery_s < 10.0);
  (match recovery_after ~inj:run.inj ~receiver:ny with
  | Some dt ->
      Alcotest.(check bool) "delivery restored within 1s" true (dt <= 1.0)
  | None -> Alcotest.fail "delivery never restored after the flap");
  (* And the run replays byte-identically. *)
  let again =
    fingerprint
      (run_churn ~scenario:"bgp-flap" ~seed:42 ~duration:30.0
         ~with_reconciler:true ())
  in
  Alcotest.(check string) "flap run deterministic"
    (fingerprint run) again

(* A starved budget truncates and retries — it never overruns. *)
let test_budget_truncation () =
  let config =
    { Reconcile.default_config with
      Reconcile.budget_msgs = 100;
      backoff_base_s = 0.5;
      backoff_max_s = 2.0;
      jitter_frac = 0.0;
    }
  in
  let run =
    run_churn ~scenario:"bgp-withdraw" ~seed:42 ~config ~duration:25.0
      ~with_reconciler:true ()
  in
  let r = Option.get run.reconciler in
  let s = Reconcile.stats r Reconcile.To_ny in
  Alcotest.(check bool) "epochs ran" true (s.Reconcile.epochs >= 1);
  Alcotest.(check bool)
    "tight budget forced truncation" true
    (s.Reconcile.truncated >= 1);
  Alcotest.(check bool)
    "latest epoch within the tight budget" true
    (s.Reconcile.last_msgs <= 100);
  Alcotest.(check bool)
    "every epoch within the tight budget" true
    (s.Reconcile.total_msgs <= s.Reconcile.epochs * 100);
  Alcotest.(check bool)
    "retries rebuilt a usable table" true
    (s.Reconcile.paths >= 1)

(* ------------------------------------------------------------------ *)
(* The in-band channel: one loss episode, one recovery                  *)

let test_peer_loss_episode () =
  let pair = Pair.setup_vultr ~seed:7 ~readmit_backoff_s:0.5 () in
  let engine = Pair.engine pair in
  let t0 = Engine.now engine in
  let r = Reconcile.arm ~pair ~seed:7 ~until_s:(t0 +. 20.0) () in
  let ch =
    match Reconcile.channel r with
    | Some ch -> ch
    | None -> Alcotest.fail "reconciler armed without its channel"
  in
  let la = Pair.pop_la pair and ny = Pair.pop_ny pair in
  Pair.start_measurement pair ~probe_interval_s:0.01 ~dead_after_probes:10
    ~for_s:20.0 ();
  Pair.run_for pair 5.0;
  Alcotest.(check bool) "peer alive before the cut" true
    (Channel.peer_alive ch ny);
  (* Sever the shared provider->server last hop: every LA->NY tunnel
     dies at once, so NY stops hearing LA entirely. *)
  let fabric = Pair.fabric pair in
  Fabric.fail_link fabric ~from_node:Vultr.vultr_ny ~to_node:Vultr.server_ny;
  Pair.run_for pair 3.0;
  Alcotest.(check bool) "NY declared peer loss" false
    (Channel.peer_alive ch ny);
  Alcotest.(check bool) "NY pinned into unilateral mode" true (Pop.pinned ny);
  Alcotest.(check bool) "LA still hears NY" true (Channel.peer_alive ch la);
  Fabric.heal_link fabric ~from_node:Vultr.vultr_ny ~to_node:Vultr.server_ny;
  Pair.run_for pair 12.0;
  Alcotest.(check int) "exactly one loss episode" 1 (Channel.losses ch ny);
  Alcotest.(check int) "exactly one recovery" 1 (Channel.recoveries ch ny);
  Alcotest.(check bool) "peer alive again" true (Channel.peer_alive ch ny);
  Alcotest.(check bool) "NY unpinned on recovery" false (Pop.pinned ny);
  Alcotest.(check int) "LA never lost its peer" 0 (Channel.losses ch la)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "reconcile"
    [
      ( "discovery hygiene",
        [
          Alcotest.test_case "no probe-prefix residue" `Quick
            test_no_probe_residue;
          QCheck_alcotest.to_alcotest discovery_invariants;
        ] );
      ( "churn",
        [
          Alcotest.test_case "withdraw breaks data plane" `Quick
            test_withdraw_breaks_data_plane;
          Alcotest.test_case "community-drop moves path" `Quick
            test_community_drop_moves_path;
          Alcotest.test_case "withdraw recovers with reconciler" `Quick
            test_withdraw_recovers_with_reconciler;
          Alcotest.test_case "bounded recovery across seeds" `Slow
            test_churn_recovery_bounded;
          Alcotest.test_case "determinism across seeds" `Slow
            test_churn_determinism;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "bgp-flap under reconciler" `Slow
            test_flap_acceptance;
          Alcotest.test_case "budget truncation" `Quick test_budget_truncation;
          Alcotest.test_case "peer loss episode" `Quick test_peer_loss_episode;
        ] );
    ]
