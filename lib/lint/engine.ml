(* Orchestration (DESIGN.md §12). The pipeline:

     discover .ml and .mli files under the roots
       -> per-file summary (parse + local passes + callgraph facts)
       -> whole-program passes over the summaries (Hotset hot-reach)
       -> missing-mli check
       -> dead-export check: each .mli under a root directory against
          the references of every .ml under the root and the program
          trees beside it (bin/, bench/, examples/); a test file is
          read only where a test-hook marker names it
       -> waiver application (after the graph passes, so a waiver on an
          interprocedural finding registers as used)
       -> unused-waiver findings

   Every run parses every file: a cold run of the whole tree fits the
   2 s budget. Everything returns data; printing lives in Report /
   Sarif. *)

type result = {
  files : string list;
  findings : Rules.finding list;  (* unwaived: these fail *)
  waived : (Rules.finding * string) list;  (* finding, waiver reason *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_findings ~file exn =
  let fallback message = [ Rules.v ~file ~line:1 ~col:0 Rules.Parse_error message ] in
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
      let loc = report.Location.main.Location.loc in
      [
        Rules.v ~file ~line:loc.Location.loc_start.Lexing.pos_lnum
          ~col:
            (loc.Location.loc_start.Lexing.pos_cnum
            - loc.Location.loc_start.Lexing.pos_bol)
          Rules.Parse_error
          (Format.asprintf "%t" report.Location.main.Location.txt);
      ]
  | Some `Already_displayed | None -> fallback (Printexc.to_string exn)

let parse parser file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match parser lexbuf with
  | tree -> Ok tree
  | exception exn -> Error (parse_findings ~file exn)

let no_refs = { Dead_export.values = []; modules = [] }

(* One file -> its summary and its references. All local passes run
   here; whole-program passes and the mli checks run downstream in
   [run]. *)
let summarize ~(config : Ast_check.config) file =
  let source = read_file file in
  let waivers, waiver_findings = Waivers.scan ~path:file source in
  let summary findings opens bindings =
    {
      Callgraph.s_path = file;
      s_findings = findings;
      s_waivers = waivers;
      s_waiver_findings = waiver_findings;
      s_opens = opens;
      s_bindings = bindings;
    }
  in
  match parse Parse.implementation file source with
  | Error findings -> (summary findings [] [], no_refs)
  | Ok structure ->
      let local =
        Ast_check.check_structure config ~file structure
        @ Domsafe.pass
            ~lane_visible:(Ast_check.path_matches file config.domsafe_modules)
            ~file structure
        @ Determinism.pass
            ~wallclock_allowed:(Ast_check.path_matches file config.wallclock_allow)
            ~file structure
      in
      let opens, bindings = Callgraph.extract structure in
      (summary local opens bindings, Dead_export.references structure)

let mli_findings ~(config : Ast_check.config) file =
  if config.Ast_check.require_mli && not (Sys.file_exists (file ^ "i")) then
    [
      Rules.v ~file ~line:1 ~col:0 Rules.Missing_mli
        "no matching .mli: every library module declares its interface";
    ]
  else []

let apply_waivers ~waivers_by_file findings =
  List.partition_map
    (fun (f : Rules.finding) ->
      let waivers =
        match Hashtbl.find_opt waivers_by_file f.Rules.file with
        | Some ws -> ws
        | None -> []
      in
      match
        List.find_opt
          (fun w -> Waivers.covers w ~rule:f.Rules.rule ~line:f.Rules.line)
          waivers
      with
      | Some w ->
          w.Waivers.used <- true;
          Either.Left (f, w.Waivers.reason)
      | None -> Either.Right f)
    findings

let is_dir path = Sys.file_exists path && Sys.is_directory path

let rec files_under path =
  if is_dir path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
    [ path ]
  else []

(* The programs that read a lint root's exports besides the root's own
   .ml files: those under its siblings bin/, bench/ and examples/. *)
let sibling root d =
  let parent = Filename.dirname root in
  if String.equal parent Filename.current_dir_name then d else Filename.concat parent d

let reader_files root =
  List.concat_map (fun d -> files_under (sibling root d)) [ "bin"; "bench"; "examples" ]
  |> List.filter (fun f -> Filename.check_suffix f ".ml")

let refs_of file =
  match parse Parse.implementation file (read_file file) with
  | Ok structure -> Dead_export.references structure
  | Error _ -> no_refs

(* dead-export over [mlis], with [lib_refs] (the roots' own .ml files)
   and the program trees of every directory root as readers. A test
   file named by a test-hook marker is read, once, relative to the
   parent of the marker's root. Returns each interface's waivers, which
   join the engine's waiver table, and the findings. *)
let dead_exports ~lib_refs ~mlis roots =
  let roots = List.filter is_dir roots in
  let reader_refs =
    List.concat_map reader_files roots
    |> List.sort_uniq String.compare
    |> List.filter (fun f -> not (List.mem_assoc f lib_refs))
    |> List.map (fun file -> (file, refs_of file))
  in
  let index = Dead_export.index (lib_refs @ reader_refs) in
  let tests = Hashtbl.create 16 in
  let test_reader ~mli test =
    match List.find_opt (fun root -> String.starts_with ~prefix:root mli) roots with
    | None -> None
    | Some root ->
        let file = sibling root test in
        if not (Filename.check_suffix file ".ml" && Sys.file_exists file) then None
        else begin
          if not (Hashtbl.mem tests file) then
            Hashtbl.add tests file (Dead_export.index [ (file, refs_of file) ]);
          Hashtbl.find_opt tests file
        end
  in
  List.map
    (fun mli ->
      let source = read_file mli in
      let waivers, waiver_findings = Waivers.scan ~path:mli source in
      let findings =
        match parse Parse.interface mli source with
        | Ok signature ->
            Dead_export.check index ~test_reader:(test_reader ~mli) ~mli ~source signature
        | Error findings -> findings
      in
      ((mli, waivers), findings @ waiver_findings))
    mlis
  |> List.split

let run ?(config = Ast_check.default) paths =
  let files = List.concat_map files_under paths in
  let mls, mlis = List.partition (fun f -> Filename.check_suffix f ".ml") files in
  let analysed = List.map (summarize ~config) mls in
  let summaries = List.map fst analysed in
  let lib_map = Callgraph.library_map ~roots:(List.filter is_dir paths) in
  let reach = Hotset.findings ~config ~lib_map summaries in
  let mli_waivers, dead =
    dead_exports ~lib_refs:(List.combine mls (List.map snd analysed)) ~mlis paths
  in
  let waivers =
    List.map
      (fun (s : Callgraph.summary) -> (s.Callgraph.s_path, s.Callgraph.s_waivers))
      summaries
    @ mli_waivers
  in
  let waivers_by_file = Hashtbl.create 256 in
  List.iter (fun (path, ws) -> Hashtbl.replace waivers_by_file path ws) waivers;
  let raw =
    List.concat_map
      (fun (s : Callgraph.summary) -> s.Callgraph.s_findings @ s.Callgraph.s_waiver_findings)
      summaries
    @ reach
    @ List.concat_map (mli_findings ~config) mls
    @ List.concat dead
  in
  let waived, unwaived = apply_waivers ~waivers_by_file raw in
  let unused = List.concat_map (fun (path, ws) -> Waivers.unused_findings ~path ws) waivers in
  {
    files;
    findings = List.sort Rules.finding_compare (unwaived @ unused);
    waived = List.sort (fun (a, _) (b, _) -> Rules.finding_compare a b) waived;
  }

(* Single-file entry point, local passes only (no call graph and no
   dead-export check): what the fixture tests drive and what stays
   cheap to reason about. Returns (unwaived, waived). *)
let lint_file ?(config = Ast_check.default) file =
  let summary, _refs = summarize ~config file in
  let waivers_by_file = Hashtbl.create 1 in
  Hashtbl.replace waivers_by_file file summary.Callgraph.s_waivers;
  let raw =
    summary.Callgraph.s_findings @ summary.Callgraph.s_waiver_findings
    @ mli_findings ~config file
  in
  let waived, unwaived = apply_waivers ~waivers_by_file raw in
  let unwaived =
    unwaived @ Waivers.unused_findings ~path:file summary.Callgraph.s_waivers
  in
  (unwaived, waived)
