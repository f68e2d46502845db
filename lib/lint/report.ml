module Json = Tango_obs.Json

let text oc (r : Engine.result) =
  List.iter
    (fun (f : Rules.finding) ->
      Printf.fprintf oc "%s:%d:%d: [%s] %s\n" f.file f.line f.col (Rules.id f.rule)
        f.message;
      match f.chain with
      | [] -> ()
      | chain -> Printf.fprintf oc "    call chain: %s\n" (String.concat " -> " chain))
    r.Engine.findings;
  Printf.fprintf oc "tango_lint: %d file%s scanned, %d finding%s, %d waived\n"
    (List.length r.Engine.files)
    (if List.length r.Engine.files = 1 then "" else "s")
    (List.length r.Engine.findings)
    (if List.length r.Engine.findings = 1 then "" else "s")
    (List.length r.Engine.waived)

(* Hand-rolled JSON: the schema is small and stable, documented in
   EXPERIMENTS.md. *)
let json_chain (f : Rules.finding) =
  match f.chain with
  | [] -> ""
  | chain ->
      Printf.sprintf ", \"chain\": [%s]"
        (String.concat ", "
           (List.map (fun c -> "\"" ^ Json.escape c ^ "\"") chain))

let json_finding oc ~last (f : Rules.finding) =
  Printf.fprintf oc
    "    { \"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \"message\": \"%s\"%s }%s\n"
    (Json.escape f.file) f.line f.col (Rules.id f.rule) (Json.escape f.message)
    (json_chain f)
    (if last then "" else ",")

let json oc (r : Engine.result) =
  let n_findings = List.length r.Engine.findings in
  let n_waived = List.length r.Engine.waived in
  output_string oc "{\n";
  output_string oc "  \"schema_version\": 3,\n";
  output_string oc "  \"tool\": \"tango_lint\",\n";
  Printf.fprintf oc "  \"rules\": [ %s ],\n"
    (String.concat ", " (List.map (fun ru -> "\"" ^ Rules.id ru ^ "\"") Rules.all));
  Printf.fprintf oc "  \"files_scanned\": %d,\n" (List.length r.Engine.files);
  output_string oc "  \"findings\": [\n";
  List.iteri
    (fun i f -> json_finding oc ~last:(i = n_findings - 1) f)
    r.Engine.findings;
  output_string oc "  ],\n";
  output_string oc "  \"waived\": [\n";
  List.iteri
    (fun i ((f : Rules.finding), reason) ->
      Printf.fprintf oc
        "    { \"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"reason\": \"%s\" }%s\n"
        (Json.escape f.file) f.line (Rules.id f.rule) (Json.escape reason)
        (if i = n_waived - 1 then "" else ","))
    r.Engine.waived;
  output_string oc "  ],\n";
  Printf.fprintf oc "  \"summary\": { \"errors\": %d, \"waived\": %d }\n" n_findings
    n_waived;
  output_string oc "}\n"
