(* Tests for lib/faults: spec validation, seed-determinism of the
   random generator, scenario lookups, and the injection engine's two
   core guarantees — a blackholed path never delivers, and [clear]
   restores the deployment to the structural state of a fault-free
   twin. *)

open Tango
module Spec = Tango_faults.Spec
module Scenario = Tango_faults.Scenario
module Inject = Tango_faults.Inject
module Engine = Tango_sim.Engine
module Fabric = Tango_dataplane.Fabric
module Clock = Tango_dataplane.Clock

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)

let invalid f =
  try
    ignore (f ());
    false
  with Tango_faults.Err.Invalid _ -> true

let test_spec_validation () =
  List.iter
    (fun (name, f) -> Alcotest.(check bool) name true (invalid f))
    [
      ("negative start", fun () -> Spec.v ~start_s:(-1.0) ~duration_s:1.0 Spec.Blackhole);
      ("zero duration", fun () -> Spec.v ~start_s:0.0 ~duration_s:0.0 Spec.Blackhole);
      ("negative path", fun () -> Spec.v ~path:(-1) ~start_s:0.0 ~duration_s:1.0 Spec.Blackhole);
      ( "flap period beyond window",
        fun () -> Spec.v ~start_s:0.0 ~duration_s:1.0 (Spec.Flap { period_s = 2.0 }) );
      ( "flap period zero",
        fun () -> Spec.v ~start_s:0.0 ~duration_s:1.0 (Spec.Flap { period_s = 0.0 }) );
      ( "brownout loss above one",
        fun () ->
          Spec.v ~start_s:0.0 ~duration_s:1.0
            (Spec.Brownout { loss = 1.5; extra_ms = 1.0 }) );
      ( "brownout negative delay",
        fun () ->
          Spec.v ~start_s:0.0 ~duration_s:1.0
            (Spec.Brownout { loss = 0.1; extra_ms = -1.0 }) );
      ( "zero clock step",
        fun () -> Spec.v ~start_s:0.0 ~duration_s:1.0 (Spec.Clock_step { step_ms = 0.0 }) );
    ];
  (* A representative valid spec of each kind builds and renders. *)
  List.iter
    (fun kind ->
      let s = Spec.v ~path:1 ~start_s:2.0 ~duration_s:4.0 kind in
      Spec.validate s;
      Alcotest.(check bool)
        (Spec.kind_to_string kind ^ " renders")
        true
        (String.length (Spec.to_string s) > 0))
    [
      Spec.Blackhole;
      Spec.Flap { period_s = 2.0 };
      Spec.Brownout { loss = 0.3; extra_ms = 25.0 };
      Spec.Probe_starvation;
      Spec.Clock_step { step_ms = 50.0 };
      Spec.Bgp_withdraw;
      Spec.Bgp_flap { period_s = 4.0 };
      Spec.Community_drop;
    ]

let test_kind_codes_distinct () =
  let kinds =
    [
      Spec.Blackhole;
      Spec.Flap { period_s = 2.0 };
      Spec.Brownout { loss = 0.3; extra_ms = 25.0 };
      Spec.Probe_starvation;
      Spec.Clock_step { step_ms = 50.0 };
      Spec.Bgp_withdraw;
      Spec.Bgp_flap { period_s = 4.0 };
      Spec.Community_drop;
    ]
  in
  let codes = List.map Spec.kind_code kinds in
  Alcotest.(check int) "codes distinct" (List.length kinds)
    (List.length (List.sort_uniq compare codes))

let prop_random_deterministic =
  QCheck.Test.make ~name:"Spec.random: same seed, same schedule" ~count:100
    QCheck.(pair small_int (int_bound 20))
    (fun (seed, n) ->
      Spec.random ~seed ~paths:4 ~n = Spec.random ~seed ~paths:4 ~n)

let prop_random_valid =
  QCheck.Test.make ~name:"Spec.random: every spec validates and is in range"
    ~count:100
    QCheck.(pair small_int (int_bound 20))
    (fun (seed, n) ->
      let specs = Spec.random ~seed ~paths:4 ~n in
      List.iter Spec.validate specs;
      List.length specs = n
      && List.for_all
           (fun s ->
             s.Spec.path >= 0 && s.Spec.path < 4 && s.Spec.start_s >= 0.0
             && s.Spec.duration_s > 0.0)
           specs)

let prop_random_seed_sensitive =
  QCheck.Test.make ~name:"Spec.random: different seeds diverge" ~count:50
    QCheck.(small_int)
    (fun seed ->
      (* With 10 draws over this many dimensions, collision would be
         astronomically unlikely — treat it as a generator bug. *)
      Spec.random ~seed ~paths:4 ~n:10 <> Spec.random ~seed:(seed + 1) ~paths:4 ~n:10)

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)

let names () = List.map (fun s -> s.Scenario.name) Scenario.all

let test_scenario_lookup () =
  List.iter
    (fun name ->
      let sc = Scenario.get name in
      Alcotest.(check string) "name matches" name sc.Scenario.name;
      Alcotest.(check bool) "has specs" true (sc.Scenario.specs <> []);
      List.iter Spec.validate sc.Scenario.specs)
    (names ());
  Alcotest.(check bool) "get on unknown raises" true
    (invalid (fun () -> Scenario.get "no-such"))

let test_scenario_names_unique () =
  let names = names () in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* ------------------------------------------------------------------ *)
(* Injection                                                           *)

let test_blackhole_never_delivers () =
  (* Pin the sender to the blackholed path: every app packet sent inside
     the fault window must vanish. *)
  let pair = Pair.setup_vultr ~seed:3 ~policy_la:(Policy.Static 2) () in
  let la = Pair.pop_la pair and ny = Pair.pop_ny pair in
  let inj =
    Inject.arm ~pair [ Spec.v ~path:2 ~start_s:1.0 ~duration_s:8.0 Spec.Blackhole ]
  in
  Pair.start_measurement pair ~for_s:10.0 ();
  let engine = Pair.engine pair in
  for i = 1 to 50 do
    Engine.schedule engine
      ~delay:(2.0 +. (0.05 *. float_of_int i))
      (fun _ -> ignore (Pop.send_app la ()))
  done;
  Pair.run_for pair 10.0;
  Alcotest.(check int) "fault fired once" 1 (Inject.injected inj);
  Alcotest.(check int) "window over" 0 (Inject.active inj);
  Alcotest.(check int) "no app packet crossed the blackhole" 0 (Pop.app_received ny)

(* Structural (non-statistical) state of a deployment: forwarding paths
   toward every LA->NY tunnel endpoint, fabric fault hooks, probe
   trains and clocks. Measurement history legitimately differs between
   a faulted-then-cleared run and its fault-free twin; this must not. *)
let structural_state pair =
  let net = Pair.network pair in
  let la = Pair.pop_la pair and ny = Pair.pop_ny pair in
  let plan_ny = Pop.remote_plan la in
  let paths =
    List.mapi
      (fun i _ ->
        Tango_bgp.Network.forwarding_path net ~from_node:(Pop.node la)
          (Addressing.tunnel_endpoint plan_ny ~path:i))
      (Pair.paths_to_ny pair)
  in
  ( paths,
    Fabric.fault_count (Pair.fabric pair),
    (Pop.probes_suppressed la, Pop.probes_suppressed ny),
    ( Clock.now_ns (Pop.clock la) ~sim_time_s:0.0,
      Clock.now_ns (Pop.clock ny) ~sim_time_s:0.0 ) )

let twin ~faults =
  let pair = Pair.setup_vultr ~seed:5 () in
  let inj =
    if faults then
      Some
        (Inject.arm ~pair
           [
             Spec.v ~path:2 ~start_s:1.0 ~duration_s:20.0 Spec.Blackhole;
             Spec.v ~start_s:1.0 ~duration_s:20.0 Spec.Probe_starvation;
             Spec.v ~start_s:1.0 ~duration_s:20.0 (Spec.Clock_step { step_ms = 40.0 });
             Spec.v ~path:1 ~start_s:1.0 ~duration_s:20.0 Spec.Bgp_withdraw;
             Spec.v ~path:0 ~start_s:1.0 ~duration_s:20.0 Spec.Community_drop;
           ])
    else None
  in
  Pair.start_measurement pair ~for_s:10.0 ();
  Pair.run_for pair 5.0;
  (match inj with
  | Some inj ->
      Alcotest.(check int) "all five active mid-window" 5 (Inject.active inj);
      Inject.clear inj;
      Alcotest.(check int) "none active after clear" 0 (Inject.active inj);
      (* Idempotent. *)
      Inject.clear inj
  | None -> ());
  (* Let BGP re-propagate the restored announcements. *)
  Pair.run_for pair 5.0;
  structural_state pair

let test_clear_equals_fault_free_twin () =
  let faulted = twin ~faults:true in
  let clean = twin ~faults:false in
  Alcotest.(check bool) "structural state equals fault-free twin" true
    (faulted = clean)

let test_arm_rejects_bad_path () =
  let pair = Pair.setup_vultr ~seed:3 () in
  Alcotest.(check bool) "path beyond discovery raises" true
    (invalid (fun () ->
         Inject.arm ~pair [ Spec.v ~path:99 ~start_s:1.0 ~duration_s:1.0 Spec.Blackhole ]))

(* A mesh-only fault is refused when armed on a pair, before any event
   is scheduled — not when its window opens. *)
let test_arm_rejects_mesh_faults () =
  let pair = Pair.setup_vultr ~seed:3 () in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (Spec.kind_to_string kind) true
        (invalid (fun () ->
             Inject.arm ~pair [ Spec.v ~start_s:1.0 ~duration_s:1.0 kind ])))
    [
      Spec.Relay_kill;
      Spec.Mesh_partition { region = 0 };
      Spec.Relay_detour;
      Spec.Relay_tamper { truncate = true };
      Spec.Relay_replay;
    ]

let test_timeline_records_on_off () =
  let pair = Pair.setup_vultr ~seed:3 () in
  let inj =
    Inject.arm ~pair [ Spec.v ~path:0 ~start_s:1.0 ~duration_s:2.0 Spec.Blackhole ]
  in
  Pair.run_for pair 5.0;
  match Inject.timeline inj with
  | [ (t_on, on); (t_off, off) ] ->
      Alcotest.(check bool) "on before off" true (t_on < t_off);
      Alcotest.(check bool) "on entry" true (String.length on > 3 && String.sub on 0 3 = "on ");
      Alcotest.(check bool) "off entry" true
        (String.length off > 4 && String.sub off 0 4 = "off ")
  | other -> Alcotest.failf "expected [on; off], got %d entries" (List.length other)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_faults"
    [
      ( "spec",
        [
          tc "validation" `Quick test_spec_validation;
          tc "kind codes distinct" `Quick test_kind_codes_distinct;
          qc prop_random_deterministic;
          qc prop_random_valid;
          qc prop_random_seed_sensitive;
        ] );
      ( "scenario",
        [
          tc "lookup" `Quick test_scenario_lookup;
          tc "names unique" `Quick test_scenario_names_unique;
        ] );
      ( "inject",
        [
          tc "blackholed path never delivers" `Quick test_blackhole_never_delivers;
          tc "clear equals fault-free twin" `Quick test_clear_equals_fault_free_twin;
          tc "arm rejects bad path" `Quick test_arm_rejects_bad_path;
          tc "arm rejects mesh faults" `Quick test_arm_rejects_mesh_faults;
          tc "timeline records on/off" `Quick test_timeline_records_on_off;
        ] );
    ]
