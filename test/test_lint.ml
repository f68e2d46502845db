(* Golden tests for tango_lint, driven by the fixture corpus in
   test/lint_fixtures/. Each fixture is parsed by the lint engine with a
   config that maps the fixture naming convention onto the real rule
   scopes: hot_*.ml are "designated hot modules", failwith_*.ml sit in
   the exception-ban path set. Fixtures are never compiled. *)

open Tango_lint

let fixture name = Filename.concat "lint_fixtures" name

let fixture_config =
  {
    Ast_check.hot_modules =
      [ "lint_fixtures/hot_"; "lint_fixtures/reach_hot"; "lint_fixtures/reach_wroot" ];
    domsafe_modules = [ "lint_fixtures/domsafe_" ];
    exn_ban_paths = [ "lint_fixtures/failwith_" ];
    wallclock_allow = [ "lint_fixtures/det_allowclock" ];
    require_mli = false;
  }

let lint ?(config = fixture_config) name = Engine.lint_file ~config (fixture name)

(* (line, rule-id) pairs in a stable order, for multiset comparison. *)
let pairs findings =
  List.sort
    (fun (l1, r1) (l2, r2) -> if l1 <> l2 then compare l1 l2 else String.compare r1 r2)
    (List.map (fun f -> (f.Rules.line, Rules.id f.rule)) findings)

let pair_t = Alcotest.(list (pair int string))

let check_findings name expected =
  let findings, _ = lint name in
  Alcotest.check pair_t name expected (pairs findings)

let test_hot_bad () =
  check_findings "hot_bad.ml"
    [
      (5, "hot-alloc");
      (* closure *)
      (7, "hot-alloc");
      (* tuple *)
      (9, "hot-alloc");
      (* record *)
      (11, "hot-alloc");
      (* list cell *)
      (13, "hot-alloc");
      (* Printf *)
      (15, "hot-alloc");
      (* Queue *)
      (17, "hot-alloc");
      (17, "hot-alloc");
      (* tuple key + tuple-keyed Hashtbl *)
    ]

let test_hot_ok () = check_findings "hot_ok.ml" []

(* Metric.incr / Trace.record are applications, not allocations: an
   instrumented hot body must stay clean. *)
let test_hot_obs_ok () = check_findings "hot_obs_ok.ml" []

let test_hot_waived () =
  let findings, waived = lint "hot_waived.ml" in
  Alcotest.check pair_t "no unwaived findings" [] (pairs findings);
  match waived with
  | [ (f, reason) ] ->
      Alcotest.(check string) "waived rule" "hot-alloc" (Rules.id f.Rules.rule);
      Alcotest.(check int) "waived line" 5 f.Rules.line;
      Alcotest.(check string) "reason" "staging closure built once at init" reason
  | other -> Alcotest.failf "expected exactly one waived finding, got %d" (List.length other)

(* Fault-injection code joined the hot-module set in the default config;
   the fixtures mirror its shapes (per-packet verdicts vs staged
   activation closures). *)
let test_hot_faults_bad () =
  check_findings "hot_faults_bad.ml" [ (6, "hot-alloc"); (8, "hot-alloc") ]

let test_hot_faults_waived () =
  let findings, waived = lint "hot_faults_waived.ml" in
  Alcotest.check pair_t "no unwaived findings" [] (pairs findings);
  match waived with
  | [ (f, reason) ] ->
      Alcotest.(check string) "waived rule" "hot-alloc" (Rules.id f.Rules.rule);
      Alcotest.(check string) "reason" "activation closure built once per armed fault"
        reason
  | other -> Alcotest.failf "expected exactly one waived finding, got %d" (List.length other)

let test_default_covers_faults () =
  List.iter
    (fun frag ->
      Alcotest.(check bool) frag true
        (List.mem frag Ast_check.default.Ast_check.hot_modules))
    [ "faults/spec.ml"; "faults/inject.ml" ]

(* Control-plane reconciliation watch/heartbeat reads joined the hot set
   too (they run on every cadence tick and heartbeat). *)
let test_hot_ctrl_bad () =
  check_findings "hot_ctrl_bad.ml" [ (6, "hot-alloc"); (8, "hot-alloc") ]

let test_hot_ctrl_ok () = check_findings "hot_ctrl_ok.ml" []

let test_default_covers_ctrl () =
  List.iter
    (fun frag ->
      Alcotest.(check bool) frag true
        (List.mem frag Ast_check.default.Ast_check.hot_modules))
    [ "ctrl/watch.ml"; "ctrl/channel.ml" ]

(* The multicore dataplane modules joined the hot set; [@hot] bodies
   must stay lock-free (no Mutex/Condition/Semaphore, no blocking
   Domain ops — Domain.cpu_relax being the one sanctioned call). *)
let test_hot_mutex_bad () =
  check_findings "hot_mutex_bad.ml"
    [
      (5, "no-mutex-in-hot");
      (7, "no-mutex-in-hot");
      (9, "no-mutex-in-hot");
      (11, "no-mutex-in-hot");
      (13, "no-mutex-in-hot");
    ]

let test_hot_mutex_ok () = check_findings "hot_mutex_ok.ml" []

let test_default_covers_multicore () =
  List.iter
    (fun frag ->
      Alcotest.(check bool) frag true
        (List.mem frag Ast_check.default.Ast_check.hot_modules))
    [ "dataplane/batch.ml"; "sim/shard.ml"; "core/throughput.ml" ]

let test_poly_bad () =
  check_findings "poly_bad.ml"
    [ (3, "poly-compare"); (5, "poly-compare"); (7, "poly-compare"); (9, "poly-compare") ]

let test_float_bad () =
  check_findings "float_bad.ml"
    [ (3, "float-equal"); (5, "float-equal"); (7, "float-equal") ]

let test_poly_ok () = check_findings "poly_ok.ml" []

let test_failwith_bad () =
  check_findings "failwith_bad.ml"
    [ (3, "no-failwith"); (5, "no-failwith"); (7, "no-failwith") ]

let test_failwith_ok () = check_findings "failwith_ok.ml" []

let test_waiver_bad () =
  check_findings "waiver_bad.ml" [ (3, "waiver"); (6, "waiver"); (9, "waiver") ]

let test_parse_bad () =
  let findings, _ = lint "parse_bad.ml" in
  match findings with
  | [ f ] -> Alcotest.(check string) "rule" "parse-error" (Rules.id f.Rules.rule)
  | other -> Alcotest.failf "expected one parse-error finding, got %d" (List.length other)

(* R4: with require_mli on, a lone .ml is flagged and .ml + .mli is not. *)
let test_missing_mli () =
  let config = { fixture_config with Ast_check.require_mli = true } in
  let flagged, _ = lint ~config "float_bad.ml" in
  let has_missing =
    List.exists (fun f -> String.equal (Rules.id f.Rules.rule) "missing-mli") flagged
  in
  Alcotest.(check bool) "float_bad.ml lacks an mli" true has_missing;
  let ok, _ = lint ~config "poly_ok.ml" in
  let has_missing =
    List.exists (fun f -> String.equal (Rules.id f.Rules.rule) "missing-mli") ok
  in
  Alcotest.(check bool) "poly_ok.ml has its mli" false has_missing

(* R7/R7b/R7c: domain-safety over lane-visible fixture modules. *)
let test_domsafe_bad () =
  check_findings "domsafe_bad.ml"
    [
      (6, "domsafe-mutation");
      (8, "domsafe-blocking");
      (10, "domsafe-blocking");
      (12, "domsafe-domain-self");
    ]

(* Ring-publication false-positive guard: the sanctioned SPSC pattern
   (plain slot writes + Atomic.set of the cursor) and lane-local
   mutable state must both stay clean. *)
let test_domsafe_ok () = check_findings "domsafe_ok.ml" []

let test_domsafe_waived () =
  let findings, waived = lint "domsafe_waived.ml" in
  Alcotest.check pair_t "no unwaived findings" [] (pairs findings);
  match waived with
  | [ (f, reason) ] ->
      Alcotest.(check string) "waived rule" "domsafe-mutation" (Rules.id f.Rules.rule);
      Alcotest.(check string) "reason"
        "producer-private counter, read only after join" reason
  | other ->
      Alcotest.failf "expected exactly one waived finding, got %d" (List.length other)

(* R8/R8b/R8c: determinism rules. *)
let test_det_bad () =
  check_findings "det_bad.ml"
    [
      (3, "determinism-wallclock");
      (5, "determinism-wallclock");
      (7, "determinism-random");
      (9, "determinism-random");
      (11, "determinism-iteration");
      (13, "determinism-iteration");
    ]

(* Collect-and-sort exemption (pipe and direct-application forms) and
   explicitly seeded Random.State. *)
let test_det_ok () = check_findings "det_ok.ml" []

let test_det_waived () =
  let findings, waived = lint "det_waived.ml" in
  Alcotest.check pair_t "no unwaived findings" [] (pairs findings);
  match waived with
  | [ (f, _) ] ->
      Alcotest.(check string) "waived rule" "determinism-iteration"
        (Rules.id f.Rules.rule)
  | other ->
      Alcotest.failf "expected exactly one waived finding, got %d" (List.length other)

let test_det_allowclock () = check_findings "det_allowclock_ok.ml" []

(* R6: the interprocedural pass. A clean [@hot] root reaches an
   allocation two resolved calls away; the finding lands at the callee
   with the full (depth-3) chain. *)
let test_reach_chain () =
  let result =
    Engine.run ~config:fixture_config
      [ fixture "reach_hot.ml"; fixture "reach_mid.ml"; fixture "reach_leaf.ml" ]
  in
  match result.Engine.findings with
  | [ f ] ->
      Alcotest.(check string) "rule" "hot-reach" (Rules.id f.Rules.rule);
      Alcotest.(check string) "file" (fixture "reach_leaf.ml") f.Rules.file;
      Alcotest.(check int) "line" 3 f.Rules.line;
      Alcotest.(check (list string))
        "chain"
        [ "Reach_hot.dispatch"; "Reach_mid.step"; "Reach_leaf.build" ]
        f.Rules.chain
  | other -> Alcotest.failf "expected one hot-reach finding, got %d" (List.length other)

(* A hot-reach waiver lives at the callee site (where the finding
   lands) and registers as used — no unused-waiver finding. *)
let test_reach_waived () =
  let result =
    Engine.run ~config:fixture_config
      [ fixture "reach_wroot.ml"; fixture "reach_wleaf.ml" ]
  in
  Alcotest.check pair_t "no unwaived findings" [] (pairs result.Engine.findings);
  match result.Engine.waived with
  | [ (f, reason) ] ->
      Alcotest.(check string) "waived rule" "hot-reach" (Rules.id f.Rules.rule);
      Alcotest.(check string) "reason"
        "staging pair built once per rebind, not per packet" reason
  | other ->
      Alcotest.failf "expected exactly one waived finding, got %d" (List.length other)

(* R9: dead-export over a fixture tree with sibling lib/, bin/ and
   test/. Alias, open, local open and functor-argument references from
   a program all count; a reference from the module's own .ml does
   not, and neither does one from a test, unless a test-hook marker
   names that test. A marker whose test does not reference its val,
   that names no test file, that sits on a val a program reads (stale,
   like an unused waiver) or above no val is itself a finding. *)
let test_dead_export () =
  let result = Engine.run ~config:fixture_config [ fixture "dead/lib" ] in
  let site (f : Rules.finding) = (f.Rules.line, Rules.id f.Rules.rule, f.Rules.message) in
  let dead line name =
    (line, "dead-export", name ^ " is exported but no program outside its module references it")
  in
  Alcotest.(check (list (triple int string string)))
    "flagged"
    [
      dead 13 "Exports.test_only";
      dead 14 "Exports.own_only";
      dead 15 "Exports.unreferenced";
      ( 23,
        "dead-export",
        "test-hook for Exports.hook_unread names test/test_exports.ml, which does not \
         reference it" );
      ( 26,
        "dead-export",
        "test-hook for Exports.hook_no_file names test/test_missing.ml, which is not a \
         test file" );
      ( 29,
        "dead-export",
        "stale test-hook for Exports.hook_stale (test/test_exports.ml): a program \
         references it" );
      (32, "dead-export", "test-hook marker is not on the line above a val");
      dead 34 "Exports.after_blank";
    ]
    (List.map site result.Engine.findings);
  match result.Engine.waived with
  | [ (f, reason) ] ->
      Alcotest.(check (triple int string string))
        "waived" (dead 18 "Exports.waived") (site f);
      Alcotest.(check string) "reason" "kept for the fixture's waiver case" reason
  | other -> Alcotest.failf "expected exactly one waived finding, got %d" (List.length other)

(* A module alias is collected over the whole file, whatever its scope:
   [module R = Old_r] inside one submodule of test/test_r.ml must not
   hide the test's top-level [R.f], so the hook on [R.f] holds. *)
let test_dead_export_scoped_alias () =
  let result = Engine.run ~config:fixture_config [ fixture "dead/lib" ] in
  Alcotest.(check (list string))
    "no finding on r.mli" []
    (List.filter_map
       (fun (f : Rules.finding) ->
         if Filename.basename f.Rules.file = "r.mli" then Some f.Rules.message else None)
       result.Engine.findings)

(* SARIF export: schema-valid enough to parse, 1-based columns, chain
   in the message text. *)
let test_sarif () =
  let f =
    { (Rules.v ~file:"x.ml" ~line:3 ~col:1 Rules.Hot_alloc "boxed") with
      Rules.chain = [ "A.a"; "B.b" ] }
  in
  let path = Filename.temp_file "tango_lint" ".sarif" in
  let oc = open_out_bin path in
  Sarif.render oc [ f ];
  close_out oc;
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let j = Tango_obs.Json.parse src in
  Alcotest.(check (option string))
    "version" (Some "2.1.0")
    Tango_obs.Json.(string_opt (member "version" j));
  match Tango_obs.Json.member "runs" j with
  | Some (Tango_obs.Json.List [ run ]) -> begin
      match Tango_obs.Json.member "results" run with
      | Some (Tango_obs.Json.List [ result ]) ->
          Alcotest.(check (option string))
            "ruleId" (Some "hot-alloc")
            Tango_obs.Json.(string_opt (member "ruleId" result));
          let text =
            Tango_obs.Json.(
              string_opt
                (Option.bind (member "message" result) (member "text")))
          in
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec go i =
              i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "chain in message" true
            (match text with Some t -> contains t "A.a -> B.b" | None -> false)
      | _ -> Alcotest.fail "expected one SARIF result"
    end
  | _ -> Alcotest.fail "expected one SARIF run"

(* Waiver scanner unit behaviour, independent of the AST passes. *)
let test_waiver_scan () =
  let src =
    "let x = 1 (* tango-lint: allow float-equal -- tolerance checked upstream *)\n"
  in
  let waivers, malformed = Waivers.scan ~path:"inline.ml" src in
  Alcotest.(check int) "no malformed" 0 (List.length malformed);
  match waivers with
  | [ w ] ->
      Alcotest.(check string) "rule" "float-equal" (Rules.id w.Waivers.rule);
      Alcotest.(check string) "reason" "tolerance checked upstream" w.Waivers.reason;
      Alcotest.(check bool) "covers own line" true
        (Waivers.covers w ~rule:Rules.Float_equal ~line:1);
      Alcotest.(check bool) "covers next line" true
        (Waivers.covers w ~rule:Rules.Float_equal ~line:2);
      Alcotest.(check bool) "not two lines down" false
        (Waivers.covers w ~rule:Rules.Float_equal ~line:3);
      Alcotest.(check bool) "rule-specific" false
        (Waivers.covers w ~rule:Rules.Hot_alloc ~line:1)
  | other -> Alcotest.failf "expected one waiver, got %d" (List.length other)

let test_engine_walk () =
  let result = Engine.run ~config:fixture_config [ "lint_fixtures" ] in
  Alcotest.(check bool) "walk finds the corpus" true (List.length result.Engine.files >= 10);
  Alcotest.(check bool) "corpus has findings" true
    (List.length result.Engine.findings > 0)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "hot-alloc must-flag" `Quick test_hot_bad;
          Alcotest.test_case "hot-alloc must-pass" `Quick test_hot_ok;
          Alcotest.test_case "hot-alloc obs instrumentation" `Quick test_hot_obs_ok;
          Alcotest.test_case "hot-alloc waived" `Quick test_hot_waived;
          Alcotest.test_case "hot-alloc faults must-flag" `Quick test_hot_faults_bad;
          Alcotest.test_case "hot-alloc faults waived" `Quick test_hot_faults_waived;
          Alcotest.test_case "default hot modules cover faults" `Quick
            test_default_covers_faults;
          Alcotest.test_case "hot-alloc ctrl must-flag" `Quick test_hot_ctrl_bad;
          Alcotest.test_case "hot-alloc ctrl must-pass" `Quick test_hot_ctrl_ok;
          Alcotest.test_case "default hot modules cover ctrl" `Quick
            test_default_covers_ctrl;
          Alcotest.test_case "no-mutex-in-hot must-flag" `Quick test_hot_mutex_bad;
          Alcotest.test_case "no-mutex-in-hot must-pass" `Quick test_hot_mutex_ok;
          Alcotest.test_case "default hot modules cover multicore" `Quick
            test_default_covers_multicore;
          Alcotest.test_case "poly-compare must-flag" `Quick test_poly_bad;
          Alcotest.test_case "float-equal must-flag" `Quick test_float_bad;
          Alcotest.test_case "poly-compare must-pass" `Quick test_poly_ok;
          Alcotest.test_case "no-failwith must-flag" `Quick test_failwith_bad;
          Alcotest.test_case "no-failwith must-pass" `Quick test_failwith_ok;
          Alcotest.test_case "waiver must-flag" `Quick test_waiver_bad;
          Alcotest.test_case "parse error surfaces" `Quick test_parse_bad;
          Alcotest.test_case "missing-mli" `Quick test_missing_mli;
          Alcotest.test_case "domsafe must-flag" `Quick test_domsafe_bad;
          Alcotest.test_case "domsafe ring-publication must-pass" `Quick
            test_domsafe_ok;
          Alcotest.test_case "domsafe waived" `Quick test_domsafe_waived;
          Alcotest.test_case "determinism must-flag" `Quick test_det_bad;
          Alcotest.test_case "determinism collect-and-sort must-pass" `Quick
            test_det_ok;
          Alcotest.test_case "determinism waived" `Quick test_det_waived;
          Alcotest.test_case "determinism wallclock allow-list" `Quick
            test_det_allowclock;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "depth-3 chain must-flag" `Quick test_reach_chain;
          Alcotest.test_case "callee-site waiver" `Quick test_reach_waived;
          Alcotest.test_case "dead-export over sibling readers" `Quick test_dead_export;
          Alcotest.test_case "dead-export: a scoped alias hides no reference" `Quick
            test_dead_export_scoped_alias;
        ] );
      ( "scale",
        [
          Alcotest.test_case "sarif export" `Quick test_sarif;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "scan and cover" `Quick test_waiver_scan;
          Alcotest.test_case "engine walk" `Quick test_engine_walk;
        ] );
    ]
