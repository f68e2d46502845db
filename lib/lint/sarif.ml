(* SARIF 2.1.0 export (EXPERIMENTS.md): one run, one driver
   ("tango_lint"), the full rule catalogue, one result per unwaived
   finding. Minimal but schema-valid — enough for GitHub code scanning
   and SARIF viewers to place findings on lines. SARIF columns are
   1-based; the linter's are 0-based, hence the +1. Call chains ride in
   the message text (SARIF codeFlows are overkill for a syntactic
   linter and triple the output size). *)

module Json = Tango_obs.Json

let message_text (f : Rules.finding) =
  match f.chain with
  | [] -> f.message
  | chain -> Printf.sprintf "%s [call chain: %s]" f.message (String.concat " -> " chain)

let render oc (findings : Rules.finding list) =
  output_string oc "{\n";
  output_string oc "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  output_string oc "  \"version\": \"2.1.0\",\n";
  output_string oc "  \"runs\": [\n    {\n";
  output_string oc "      \"tool\": {\n        \"driver\": {\n";
  output_string oc "          \"name\": \"tango_lint\",\n";
  output_string oc "          \"version\": \"2\",\n";
  output_string oc "          \"rules\": [";
  List.iteri
    (fun i rule ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc
        "\n            {\"id\": \"%s\", \"shortDescription\": {\"text\": \"%s\"}}"
        (Rules.id rule)
        (Json.escape (Rules.describe rule)))
    Rules.all;
  output_string oc "\n          ]\n        }\n      },\n";
  output_string oc "      \"results\": [";
  List.iteri
    (fun i (f : Rules.finding) ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc
        "\n        {\"ruleId\": \"%s\", \"level\": \"error\", \"message\": \
         {\"text\": \"%s\"}, \"locations\": [{\"physicalLocation\": \
         {\"artifactLocation\": {\"uri\": \"%s\"}, \"region\": {\"startLine\": \
         %d, \"startColumn\": %d}}}]}"
        (Rules.id f.rule)
        (Json.escape (message_text f))
        (Json.escape f.file) f.line (f.col + 1))
    findings;
  (match findings with [] -> () | _ -> output_string oc "\n      ");
  output_string oc "]\n    }\n  ]\n}\n"
