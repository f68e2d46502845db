(* tango_lint — enforce hot-path, domain-safety, determinism and
   dead-export discipline over lib/.

   Usage: tango_lint [--json] [--sarif FILE] [--rules] [--root DIR] [PATH ...]

   Exit status: 1 if and only if there is an unwaived finding, 0
   otherwise, 2 on usage errors. A finding has one way out: a waiver
   with a reason at its site. Run through the dune alias (`dune build
   @lint`) or `make lint`. *)

module Rules = Tango_lint.Rules
module Engine = Tango_lint.Engine
module Report = Tango_lint.Report
module Sarif = Tango_lint.Sarif

let () =
  let json = ref false in
  let list_rules = ref false in
  let sarif = ref "" in
  let roots = ref [] in
  let add_root p = roots := p :: !roots in
  let spec =
    [
      ("--json", Arg.Set json, " emit the machine-readable report instead of text");
      ("--sarif", Arg.Set_string sarif, "FILE also write a SARIF 2.1.0 report to FILE");
      ("--rules", Arg.Set list_rules, " list the rules and their rationale, then exit");
      ("--root", Arg.String add_root, "DIR directory (or file) to lint; repeatable");
    ]
  in
  let usage = "tango_lint [--json] [--sarif FILE] [--rules] [--root DIR] [PATH ...]" in
  Arg.parse (Arg.align spec) add_root usage;
  if !list_rules then begin
    List.iter
      (fun r -> Printf.printf "%-22s %s\n" (Rules.id r) (Rules.describe r))
      Rules.all;
    exit 0
  end;
  let roots = match List.rev !roots with [] -> [ "lib" ] | rs -> rs in
  (match List.find_opt (fun p -> not (Sys.file_exists p)) roots with
  | Some missing ->
      Printf.eprintf "tango_lint: no such path %S\n" missing;
      exit 2
  | None -> ());
  let result = Engine.run roots in
  if !sarif <> "" then begin
    let oc = open_out_bin !sarif in
    Sarif.render oc result.Engine.findings;
    close_out oc
  end;
  if !json then Report.json stdout result else Report.text stdout result;
  exit (match result.Engine.findings with [] -> 0 | _ -> 1)
