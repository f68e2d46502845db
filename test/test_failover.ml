(* Differential failover tests: the hardened policy must never pick a
   timed-out path while a live one exists, re-admission backoff must
   damp flap-induced oscillation, and the full two-PoP deployment must
   evacuate a blackholed path and survive (then leave) the
   all-paths-degraded mode. *)

open Tango
module Spec = Tango_faults.Spec
module Scenario = Tango_faults.Scenario
module Inject = Tango_faults.Inject
module Engine = Tango_sim.Engine

let stats ~path_id ~owd ~age =
  {
    Policy.path_id;
    owd_ewma_ms = owd;
    jitter_ms = 0.0;
    loss_rate = 0.0;
    age_s = age;
    samples = 1;
  }

(* ------------------------------------------------------------------ *)
(* Property: staleness-based dead-path detection                       *)

let prop_never_stale =
  QCheck.Test.make ~name:"never selects a timed-out path while a live one exists"
    ~count:500
    QCheck.(
      list_of_size (Gen.return 4)
        (pair (float_range 1.0 100.0) (float_range 0.0 3.0)))
    (fun per_path ->
      let arr =
        Array.of_list
          (List.mapi (fun i (owd, age) -> stats ~path_id:i ~owd ~age) per_path)
      in
      let p =
        Policy.create
          (Policy.Lowest_owd { hysteresis_ms = 0.0; min_dwell_s = 0.0 })
      in
      let chosen = Policy.choose p ~now_s:10.0 arr in
      let live s = s.Policy.age_s <= 1.0 in
      if Array.exists live arr then live arr.(chosen) else true)

(* With flap damping, a live path can be legitimately ineligible (it is
   serving a re-admission ban). The invariant is then: traffic sits on a
   stale path only in the declared degraded mode, and degraded mode only
   while every live path is banned. *)
let prop_never_stale_with_backoff =
  QCheck.Test.make
    ~name:"backoff strands traffic on a stale path only in degraded mode" ~count:200
    QCheck.(
      list_of_size (Gen.return 8)
        (list_of_size (Gen.return 4)
           (pair (float_range 1.0 100.0) (float_range 0.0 3.0))))
    (fun rounds ->
      let p =
        Policy.create ~readmit_backoff_s:0.5
          (Policy.Lowest_owd { hysteresis_ms = 0.0; min_dwell_s = 0.0 })
      in
      List.for_all
        (fun (round, per_path) ->
          let now_s = float_of_int round in
          let arr =
            Array.of_list
              (List.mapi (fun i (owd, age) -> stats ~path_id:i ~owd ~age) per_path)
          in
          let chosen = Policy.choose p ~now_s arr in
          let live s = s.Policy.age_s <= 1.0 in
          if not (Array.exists live arr) then true
          else if live arr.(chosen) then true
          else
            Policy.degraded p
            && Array.for_all
                 (fun s ->
                   (not (live s)) || Policy.readmit_banned p ~path:s.Policy.path_id ~now_s)
                 arr)
        (List.mapi (fun i r -> (i, r)) rounds))

(* ------------------------------------------------------------------ *)
(* Flap damping differential                                           *)

(* Path 1 is better but flaps (1 s up, 1 s down); path 0 is steady.
   Every re-admission is a switch opportunity, so without backoff the
   policy oscillates at the flap frequency. *)
let run_flap ~readmit_backoff_s =
  let p =
    Policy.create ~readmit_backoff_s
      (Policy.Lowest_owd { hysteresis_ms = 0.5; min_dwell_s = 0.1 })
  in
  let dt = 0.25 in
  for i = 0 to 239 do
    let t = float_of_int i *. dt in
    let up = int_of_float t mod 2 = 0 in
    let arr =
      [|
        stats ~path_id:0 ~owd:50.0 ~age:0.1;
        stats ~path_id:1 ~owd:10.0 ~age:(if up then 0.1 else 5.0);
      |]
    in
    ignore (Policy.choose p ~now_s:t arr)
  done;
  p

let test_backoff_bounds_flap_switches () =
  let without = Policy.switches (run_flap ~readmit_backoff_s:0.0) in
  let damped = run_flap ~readmit_backoff_s:1.0 in
  let with_backoff = Policy.switches damped in
  Alcotest.(check bool)
    (Printf.sprintf "undamped oscillates (%d switches)" without)
    true (without >= 20);
  Alcotest.(check bool)
    (Printf.sprintf "damped under half (%d vs %d)" with_backoff without)
    true (with_backoff * 2 < without);
  Alcotest.(check bool) "failure history recorded" true
    (Policy.fail_count damped ~path:1 >= 3);
  (* The last recovery left a live ban at the horizon. *)
  Alcotest.(check bool) "ban outlives the run" true
    (Policy.readmit_banned damped ~path:1 ~now_s:60.0
    || Policy.fail_count damped ~path:1 > 0)

let test_backoff_caps_at_max () =
  let p =
    Policy.create ~readmit_backoff_s:1.0
      (Policy.Lowest_owd { hysteresis_ms = 0.0; min_dwell_s = 0.0 })
  in
  (* Drive many fast up/down cycles; the ban must never exceed the 30 s
     cap (uncapped, the 50th failure would ban for 2^49 s). *)
  for i = 0 to 99 do
    let t = float_of_int i in
    let up = i mod 2 = 0 in
    let arr =
      [|
        stats ~path_id:0 ~owd:50.0 ~age:0.1;
        stats ~path_id:1 ~owd:10.0 ~age:(if up then 0.1 else 5.0);
      |]
    in
    ignore (Policy.choose p ~now_s:t arr)
  done;
  let last = 99.0 in
  Alcotest.(check bool) "banned right after recovery" true
    (Policy.readmit_banned p ~path:1 ~now_s:last);
  Alcotest.(check bool) "ban expires within the cap" false
    (Policy.readmit_banned p ~path:1 ~now_s:(last +. 30.1))

(* ------------------------------------------------------------------ *)
(* Two-PoP integration                                                 *)

let test_blackhole_evacuation () =
  let pair = Pair.setup_vultr ~seed:42 ~readmit_backoff_s:0.5 () in
  let la = Pair.pop_la pair in
  let inj = Inject.arm ~pair (Scenario.get "blackhole").Scenario.specs in
  Pair.start_measurement pair ~probe_interval_s:0.01 ~dead_after_probes:10
    ~for_s:20.0 ();
  (* The policy evaluates on the data path: keep app traffic flowing. *)
  let engine = Pair.engine pair in
  Tango_workload.Traffic.periodic engine ~interval_s:0.02
    ~until_s:(Engine.now engine +. 20.0) (fun _ -> ignore (Pop.send_app la ()));
  let mid = ref (-1) in
  Engine.schedule (Pair.engine pair) ~delay:12.0 (fun _ ->
      mid := Policy.current (Pop.policy la));
  Pair.run_for pair 20.0;
  Alcotest.(check int) "fault fired" 1 (Inject.injected inj);
  Alcotest.(check bool) "evacuated the blackholed path mid-window" true
    (!mid >= 0 && !mid <> 2);
  Alcotest.(check bool) "switched at least once" true (Pop.policy_switches la >= 1);
  Alcotest.(check bool) "not degraded with three live paths" false
    (Pop.policy_degraded la)

let test_meltdown_degrades_and_recovers () =
  let pair = Pair.setup_vultr ~seed:42 ~readmit_backoff_s:0.5 () in
  let la = Pair.pop_la pair in
  let inj = Inject.arm ~pair (Scenario.get "meltdown").Scenario.specs in
  Pair.start_measurement pair ~probe_interval_s:0.01 ~dead_after_probes:10
    ~for_s:25.0 ();
  let engine = Pair.engine pair in
  Tango_workload.Traffic.periodic engine ~interval_s:0.02
    ~until_s:(Engine.now engine +. 25.0) (fun _ -> ignore (Pop.send_app la ()));
  let mid = ref false in
  Engine.schedule (Pair.engine pair) ~delay:12.0 (fun _ ->
      mid := Pop.policy_degraded la);
  Pair.run_for pair 25.0;
  Alcotest.(check int) "all five faults fired" 5 (Inject.injected inj);
  Alcotest.(check bool) "degraded mid-meltdown" true !mid;
  Alcotest.(check int) "exactly one episode" 1
    (Policy.degraded_episodes (Pop.policy la));
  Alcotest.(check bool) "recovered after the window" false (Pop.policy_degraded la)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_failover"
    [
      ( "policy",
        [
          qc prop_never_stale;
          qc prop_never_stale_with_backoff;
          tc "backoff bounds flap switches" `Quick test_backoff_bounds_flap_switches;
          tc "backoff caps at max" `Quick test_backoff_caps_at_max;
        ] );
      ( "pair",
        [
          tc "blackhole evacuation" `Quick test_blackhole_evacuation;
          tc "meltdown degrades and recovers" `Quick test_meltdown_degrades_and_recovers;
        ] );
    ]
