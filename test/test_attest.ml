(* Tests for lib/mesh/attest: chain-construction properties (honest
   folds verify; tampering, detours, truncation, and replay are each
   detected with the right verdict), deterministic localization of
   truncated and detoured chains, and the end-to-end E17 guarantees —
   every Byzantine scenario is detected within one confirm cadence
   with exclusively its intended verdict across seeds, the target is
   quarantined and later readmitted, and attestation-off runs see
   nothing (the probe-driven failure detector is blind to relays that
   keep answering hellos). *)

module Attest = Tango_mesh.Attest
module Segment = Tango_mesh.Segment
module Mesh = Tango_mesh.Mesh
module Scenario = Tango_faults.Scenario

(* ------------------------------------------------------------------ *)
(* Chain construction helpers                                          *)

(* A delivered frame of [flow] over forwarding relays [route] (source
   first), honestly folded: relay [i] folds at post-decrement TTL
   [254 - i], and the burned hop budget shows exactly those hops. *)
let honest_stack ~flow ~seq ~src ~dst ~route =
  let n = Array.length route in
  let st = Segment.create_stack () in
  st.Segment.flags <- Segment.flag_attest;
  st.Segment.tree <- 1;
  st.Segment.top <- n;
  st.Segment.src <- src;
  st.Segment.dst <- dst;
  st.Segment.flow <- flow;
  st.Segment.seq <- seq;
  st.Segment.count <- n;
  st.Segment.hop_budget <- 255 - n;
  let d = ref (Attest.chain_seed ~flow ~seq ~src ~dst) in
  Array.iteri
    (fun i hop -> d := Attest.fold_hop !d ~hop ~tree:1 ~ttl:(254 - i))
    route;
  st.Segment.digest <- !d;
  st

(* Commit [route] (source first, then intermediates) toward [dst] the
   way the mesh does at stitch time: the hops array is the stitched
   entries with the destination last. *)
let commit_route a ~flow ~dst ~route =
  let n = Array.length route in
  let hops = Array.make n dst in
  Array.blit route 1 hops 0 (n - 1);
  Attest.commit a ~flow ~src:route.(0) ~hops ~count:n

let pops = 64

(* Distinct relay ids [src; i1; ...; ik] and an off-route [dst]. *)
let route_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun k ->
    int_range 0 1000 >>= fun salt ->
    let route = Array.init k (fun i -> (salt + (i * 7)) mod (pops - 1)) in
    return (route, pops - 1))

let route_arb =
  QCheck.make
    ~print:(fun (route, dst) ->
      Printf.sprintf "route [%s] -> %d"
        (String.concat ";" (Array.to_list (Array.map string_of_int route)))
        dst)
    route_gen

let fresh_verifier () = Attest.create ~pops ~flows:8 ()

let qcheck_honest_verifies =
  QCheck.Test.make ~name:"honest chain verifies" ~count:200 route_arb
    (fun (route, dst) ->
      let a = fresh_verifier () in
      commit_route a ~flow:3 ~dst ~route;
      let st = honest_stack ~flow:3 ~seq:17 ~src:route.(0) ~dst ~route in
      Attest.check a st && Attest.judge a st = Attest.Verified)

let qcheck_tamper_detected =
  QCheck.Test.make ~name:"garbled evidence never verifies" ~count:200
    QCheck.(pair route_arb pos_int)
    (fun ((route, dst), garble) ->
      let a = fresh_verifier () in
      commit_route a ~flow:3 ~dst ~route;
      let st = honest_stack ~flow:3 ~seq:17 ~src:route.(0) ~dst ~route in
      st.Segment.digest <- st.Segment.digest lxor (1 + (garble land 0xFFFF));
      Attest.judge a st <> Attest.Verified)

let qcheck_detour_detected =
  QCheck.Test.make ~name:"inserted hop reads as wrong-path" ~count:200
    QCheck.(pair route_arb (int_range 0 100))
    (fun ((route, dst), xseed) ->
      let a = fresh_verifier () in
      commit_route a ~flow:3 ~dst ~route;
      let n = Array.length route in
      (* The last relay detours through off-route [x] before [dst]:
         one extra physical hop, one extra fold. *)
      let x = (dst + 1 + xseed) mod pops in
      QCheck.assume (not (Array.mem x route) && x <> dst);
      let detoured = Array.append route [| x |] in
      let st = honest_stack ~flow:3 ~seq:17 ~src:route.(0) ~dst ~route:detoured in
      st.Segment.count <- n;
      Attest.judge a st = Attest.Wrong_path)

let qcheck_truncation_detected =
  QCheck.Test.make ~name:"dropped tail reads as truncated" ~count:200 route_arb
    (fun (route, dst) ->
      QCheck.assume (Array.length route >= 2);
      let a = fresh_verifier () in
      commit_route a ~flow:3 ~dst ~route;
      let n = Array.length route in
      (* The last relay never forwarded: its fold and its hop are both
         missing from the evidence. *)
      let short = Array.sub route 0 (n - 1) in
      let st = honest_stack ~flow:3 ~seq:17 ~src:route.(0) ~dst ~route:short in
      st.Segment.count <- n;
      Attest.judge a st = Attest.Truncated)

let qcheck_replay_detected =
  QCheck.Test.make ~name:"second delivery of a seq is replayed" ~count:200
    route_arb
    (fun (route, dst) ->
      let a = fresh_verifier () in
      commit_route a ~flow:3 ~dst ~route;
      let st = honest_stack ~flow:3 ~seq:17 ~src:route.(0) ~dst ~route in
      Attest.judge a st = Attest.Verified
      && Attest.judge a st = Attest.Replayed)

(* ------------------------------------------------------------------ *)
(* Localization                                                        *)

let test_localize_truncated () =
  let a = fresh_verifier () in
  let route = [| 0; 1; 2; 3 |] and dst = 9 in
  commit_route a ~flow:0 ~dst ~route;
  (* Relay 2 folded, then short-cut straight to the destination: the
     chain stops after three folds and one physical hop is missing. *)
  let st =
    honest_stack ~flow:0 ~seq:5 ~src:0 ~dst ~route:(Array.sub route 0 3)
  in
  st.Segment.count <- 4;
  Alcotest.(check bool) "judged truncated" true
    (Attest.judge a st = Attest.Truncated);
  Alcotest.(check int) "last honest folder blamed" 2 (Attest.last_culprit a)

let test_localize_detour () =
  let a = fresh_verifier () in
  let route = [| 0; 1; 2; 3 |] and dst = 9 in
  commit_route a ~flow:0 ~dst ~route;
  (* Relay 1 detours through off-route 40 before handing to relay 2:
     the insertion shifts every later TTL by one. *)
  let st =
    honest_stack ~flow:0 ~seq:5 ~src:0 ~dst ~route:[| 0; 1; 40; 2; 3 |]
  in
  st.Segment.count <- 4;
  Alcotest.(check bool) "judged wrong-path" true
    (Attest.judge a st = Attest.Wrong_path);
  Alcotest.(check bool) "a route relay is blamed" true
    (Array.mem (Attest.last_culprit a) route)

let test_suspicion_accrual () =
  let a = fresh_verifier () in
  let route = [| 0; 1; 2; 3 |] and dst = 9 in
  commit_route a ~flow:0 ~dst ~route;
  (* Forged evidence names no position: every intermediate of the
     route is accused, the endpoints never. *)
  let st = honest_stack ~flow:0 ~seq:5 ~src:0 ~dst ~route in
  st.Segment.digest <- 0xBAD;
  Alcotest.(check bool) "judged forged" true (Attest.judge a st = Attest.Forged);
  Alcotest.(check int) "no localization" (-1) (Attest.last_culprit a);
  Alcotest.(check int) "source not accused" 0 (Attest.suspicion a ~pop:0);
  Alcotest.(check int) "intermediate accused" 1 (Attest.suspicion a ~pop:1);
  Alcotest.(check int) "intermediate accused" 1 (Attest.suspicion a ~pop:2);
  Alcotest.(check int) "intermediate accused" 1 (Attest.suspicion a ~pop:3);
  Alcotest.(check int) "destination not accused" 0 (Attest.suspicion a ~pop:9);
  Attest.reset_suspicion a ~pop:2;
  Alcotest.(check int) "quarantine consumes suspicion" 0
    (Attest.suspicion a ~pop:2)

let test_hostile_headers () =
  let a = fresh_verifier () in
  let route = [| 0; 1 |] and dst = 9 in
  commit_route a ~flow:0 ~dst ~route;
  let st = honest_stack ~flow:0 ~seq:5 ~src:0 ~dst ~route in
  (* A flow id outside the verifier's universe, or a seq past the
     replay window, is evidence no honest source produced. *)
  st.Segment.flow <- 12345;
  Alcotest.(check bool) "out-of-range flow forged" true
    (Attest.judge a st = Attest.Forged);
  st.Segment.flow <- 0;
  st.Segment.seq <- max_int;
  Alcotest.(check bool) "out-of-window seq forged" true
    (Attest.judge a st = Attest.Forged)

let test_create_validation () =
  let invalid f =
    try
      ignore (f ());
      false
    with Tango_mesh.Err.Invalid _ -> true
  in
  Alcotest.(check bool) "zero pops rejected" true
    (invalid (fun () -> Attest.create ~pops:0 ~flows:4 ()));
  Alcotest.(check bool) "zero flows rejected" true
    (invalid (fun () -> Attest.create ~pops:4 ~flows:0 ()));
  Alcotest.(check bool) "zero threshold rejected" true
    (invalid (fun () -> Attest.create ~suspect_threshold:0 ~pops:4 ~flows:4 ()))

(* ------------------------------------------------------------------ *)
(* End to end: Mesh.run with attestation armed                         *)

let scenario_specs name = (Scenario.get name).Scenario.specs

(* Scenario -> the verdict counter its misbehavior must land in. *)
let e2e_cases =
  [
    ("relay-detour", fun r -> r.Mesh.wrong_path);
    ("relay-tamper", fun r -> r.Mesh.forged);
    ("relay-truncate", fun r -> r.Mesh.truncated);
    ("relay-replay", fun r -> r.Mesh.replayed);
  ]

let test_e2e_scenarios () =
  List.iter
    (fun (name, intended) ->
      List.iter
        (fun seed ->
          let r =
            Mesh.run ~pops:16 ~seed ~attest:true ~specs:(scenario_specs name) ()
          in
          let ctx fmt = Printf.sprintf "%s seed %d: %s" name seed fmt in
          Alcotest.(check bool) (ctx "a relay misbehaved") true
            (r.Mesh.misbehaving >= 0);
          Alcotest.(check bool) (ctx "bad verdicts raised") true
            (r.Mesh.rejected > 0);
          Alcotest.(check int)
            (ctx "every rejection carries the intended verdict")
            r.Mesh.rejected (intended r);
          Alcotest.(check bool) (ctx "target quarantined") true
            r.Mesh.quarantined_target;
          Alcotest.(check bool)
            (ctx "first verdict within one confirm cadence")
            true
            (r.Mesh.first_verdict_ms >= 0.0 && r.Mesh.first_verdict_ms <= 100.0))
        [ 1; 7; 42 ])
    e2e_cases

let test_e2e_clean_sweep () =
  List.iter
    (fun seed ->
      let r = Mesh.run ~pops:16 ~seed ~attest:true () in
      let ctx fmt = Printf.sprintf "clean seed %d: %s" seed fmt in
      Alcotest.(check bool) (ctx "traffic flowed") true (r.Mesh.delivered > 0);
      Alcotest.(check int) (ctx "nothing rejected") 0 r.Mesh.rejected;
      Alcotest.(check int) (ctx "nothing quarantined") 0 r.Mesh.quarantines;
      Alcotest.(check int) (ctx "no false quarantines") 0
        r.Mesh.false_quarantines;
      Alcotest.(check int) (ctx "nothing excused") 0 r.Mesh.excused)
    [ 1; 7; 42 ]

let test_e2e_quarantine_readmit () =
  let specs = scenario_specs "relay-detour" in
  let on = Mesh.run ~pops:16 ~seed:42 ~attest:true ~specs ()
  and off = Mesh.run ~pops:16 ~seed:42 ~specs () in
  (* Differential against the probe-detected fault machinery: a
     Byzantine relay keeps answering hellos, so with attestation off
     the run sees no rejection and no quarantine at all. *)
  Alcotest.(check int) "blind without attestation: rejections" 0
    off.Mesh.rejected;
  Alcotest.(check int) "blind without attestation: quarantines" 0
    off.Mesh.quarantines;
  Alcotest.(check bool) "quarantined with attestation" true
    (on.Mesh.quarantines >= 1);
  Alcotest.(check bool) "readmitted after backoff" true
    (on.Mesh.readmissions >= 1);
  Alcotest.(check bool) "readmissions never outrun quarantines" true
    (on.Mesh.readmissions <= on.Mesh.quarantines);
  Alcotest.(check bool) "traffic still flows around the quarantine" true
    (on.Mesh.delivered > 0)

let test_e2e_determinism () =
  let specs = scenario_specs "relay-tamper" in
  let a = Mesh.run ~pops:16 ~seed:42 ~attest:true ~specs ()
  and b = Mesh.run ~pops:16 ~seed:42 ~attest:true ~specs () in
  Alcotest.(check string) "attested fingerprint repeats" a.Mesh.fingerprint
    b.Mesh.fingerprint;
  Alcotest.(check int) "rejections repeat" a.Mesh.rejected b.Mesh.rejected

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_attest"
    [
      ( "chain",
        [
          qc qcheck_honest_verifies;
          qc qcheck_tamper_detected;
          qc qcheck_detour_detected;
          qc qcheck_truncation_detected;
          qc qcheck_replay_detected;
        ] );
      ( "localize",
        [
          tc "truncated chain names its last folder" `Quick
            test_localize_truncated;
          tc "detoured chain blames a route relay" `Quick test_localize_detour;
          tc "unlocalized verdicts accrue suspicion" `Quick
            test_suspicion_accrual;
          tc "hostile headers judged, never raised" `Quick test_hostile_headers;
          tc "create validation" `Quick test_create_validation;
        ] );
      ( "e2e",
        [
          tc "every scenario x seed detected" `Slow test_e2e_scenarios;
          tc "clean sweep stays spotless" `Quick test_e2e_clean_sweep;
          tc "quarantine then readmit" `Quick test_e2e_quarantine_readmit;
          tc "attested runs deterministic" `Quick test_e2e_determinism;
        ] );
    ]
