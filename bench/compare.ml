(* Bench-regression gate.

   Usage:
     dune exec bench/compare.exe -- BENCH_baseline.json BENCH.json
     dune exec bench/compare.exe -- --tolerance 0.25 baseline.json current.json

   Reads two microbenchmark result files in the BENCH.json schema
   (EXPERIMENTS.md) and exits non-zero when, for any benchmark present
   in both files,

     - ns/op regressed by more than the tolerance (default 25%), or
     - major-heap or minor-heap words/op went from (effectively) zero
       in the baseline to non-zero now — the zero-allocation fast path
       grew a leak or started allocating, or
     - pps (throughput pipeline rows; higher is better) dropped by more
       than 15% against the baseline.

   Benchmarks present in only one file are reported but never fail the
   gate, so adding or retiring benchmarks does not require regenerating
   the baseline in the same commit. The header names the host each file
   records (OCaml version and recommended domain count): ns/op compares
   only between like hosts. *)

module Json = Tango_obs.Json

type row = {
  ns : float option;
  minor : float option;
  major : float option;
  pps : float option;
}

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let json_of_file path =
  match Json.parse (read_file path) with
  | v -> v
  | exception Json.Parse_error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 2

(* The file's [host] object, or a note that it has none (files written
   before the field existed). *)
let host_of json =
  match Json.member "host" json with
  | Some host -> (
      match
        ( Json.string_opt (Json.member "ocaml_version" host),
          Json.number_opt (Json.member "recommended_domain_count" host) )
      with
      | Some v, Some d -> Printf.sprintf "OCaml %s, %.0f recommended domains" v d
      | _ -> "host incomplete")
  | None -> "host not recorded"

let rows_of json path =
  let results =
    match Json.member "results" json with
    | Some (Json.List l) -> l
    | _ ->
        Printf.eprintf "%s: no \"results\" array\n" path;
        exit 2
  in
  List.filter_map
    (fun entry ->
      match Json.string_opt (Json.member "name" entry) with
      | Some name ->
          Some
            ( name,
              {
                ns = Json.number_opt (Json.member "ns_per_op" entry);
                minor = Json.number_opt (Json.member "minor_words_per_op" entry);
                major = Json.number_opt (Json.member "major_words_per_op" entry);
                pps = Json.number_opt (Json.member "pps" entry);
              } )
      | None -> None)
    results

(* OLS fits on sub-ns ops can come out slightly negative; clamp so the
   ratio test is meaningful. Below this floor a benchmark is treated as
   free and never regresses. *)
let ns_floor = 0.5

(* Noise floor for the zero-allocation gates: a baseline at or under
   this many words/op (minor or major) is "zero-allocation", and staying
   under it is a pass. *)
let zero_epsilon = 0.01

(* Allowed fractional pps drop for throughput rows (higher is better). *)
let pps_tolerance = 0.15

let () =
  let tolerance = ref 0.25 in
  let paths = ref [] in
  let spec =
    [
      ( "--tolerance",
        Arg.Set_float tolerance,
        "FRAC  allowed fractional ns/op regression (default 0.25)" );
    ]
  in
  Arg.parse spec
    (fun p -> paths := p :: !paths)
    "bench regression gate: compare.exe [--tolerance FRAC] BASELINE CURRENT";
  let baseline_path, current_path =
    match List.rev !paths with
    | [ b; c ] -> (b, c)
    | _ ->
        Printf.eprintf "usage: compare.exe [--tolerance FRAC] BASELINE CURRENT\n";
        exit 2
  in
  let baseline_json = json_of_file baseline_path in
  let current_json = json_of_file current_path in
  let baseline = rows_of baseline_json baseline_path in
  let current = rows_of current_json current_path in
  let failures = ref 0 in
  let compared = ref 0 in
  Printf.printf "bench gate: %s vs %s (tolerance %.0f%%)\n" baseline_path
    current_path (100.0 *. !tolerance);
  Printf.printf "  baseline host: %s\n  current host:  %s\n" (host_of baseline_json)
    (host_of current_json);
  List.iter
    (fun (name, base) ->
      match List.assoc_opt name current with
      | None -> Printf.printf "  ~ %-45s only in baseline (skipped)\n" name
      | Some cur -> (
          incr compared;
          (match (base.ns, cur.ns) with
          | Some b, Some c ->
              let b = Float.max b ns_floor and c = Float.max c ns_floor in
              let ratio = c /. b in
              if ratio > 1.0 +. !tolerance then begin
                incr failures;
                Printf.printf "  ! %-45s ns/op %8.1f -> %8.1f  (%+.0f%%)\n" name
                  b c
                  ((ratio -. 1.0) *. 100.0)
              end
              else
                Printf.printf "  . %-45s ns/op %8.1f -> %8.1f  (%+.0f%%)\n" name
                  b c
                  ((ratio -. 1.0) *. 100.0)
          | _ -> Printf.printf "  ~ %-45s no ns/op estimate\n" name);
          List.iter
            (fun (heap, base, cur) ->
              match (base, cur) with
              | Some b, Some c when Float.abs b <= zero_epsilon && c > zero_epsilon ->
                  incr failures;
                  Printf.printf "  ! %-45s %s words/op %.3f -> %.3f (was zero-alloc)\n"
                    name heap b c
              | _ -> ())
            [ ("minor", base.minor, cur.minor); ("major", base.major, cur.major) ];
          (* Throughput rows: higher is better; gate on a >15% drop. A
             pps field present on only one side (schema drift, or a
             BENCH.json produced by an older harness) is reported but
             never gated, like a benchmark present in only one file. *)
          match (base.pps, cur.pps) with
          | Some b, Some c when b > 0.0 ->
              let ratio = c /. b in
              if ratio < 1.0 -. pps_tolerance then begin
                incr failures;
                Printf.printf "  ! %-45s pps %11.0f -> %11.0f  (%+.0f%%)\n" name
                  b c
                  ((ratio -. 1.0) *. 100.0)
              end
              else
                Printf.printf "  . %-45s pps %11.0f -> %11.0f  (%+.0f%%)\n" name
                  b c
                  ((ratio -. 1.0) *. 100.0)
          | Some _, None ->
              Printf.printf "  ~ %-45s pps only in baseline (not gated)\n" name
          | None, Some _ ->
              Printf.printf "  ~ %-45s pps only in current (not gated)\n" name
          | _ -> ()))
    baseline;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name baseline) then
        Printf.printf "  ~ %-45s new benchmark (not gated)\n" name)
    current;
  (* Relational gates, evaluated within the CURRENT file so machine
     speed cancels out: attestation verification must stay within its
     budget relative to the plain codec it rides on (E17's
     bounded-verify-cost gate). Rows missing from the current file are
     skipped, like absent benchmarks above. *)
  List.iter
    (fun (num_name, den_name, limit) ->
      match (List.assoc_opt num_name current, List.assoc_opt den_name current) with
      | Some { ns = Some n; _ }, Some { ns = Some d; _ } ->
          incr compared;
          let n = Float.max n ns_floor and d = Float.max d ns_floor in
          let ratio = n /. d in
          if ratio > limit then begin
            incr failures;
            Printf.printf "  ! %-45s %.2fx of %s (limit %.1fx)\n" num_name ratio
              den_name limit
          end
          else
            Printf.printf "  . %-45s %.2fx of %s (limit %.1fx)\n" num_name ratio
              den_name limit
      | _ -> ())
    [
      ( "tango/mesh.attest.verify (4 hops)",
        "tango/mesh.segment decode_into (4 hops)",
        2.0 );
    ];
  if !failures > 0 then begin
    Printf.printf "FAIL: %d regression(s) across %d compared benchmarks\n"
      !failures !compared;
    exit 1
  end
  else Printf.printf "OK: %d benchmarks within tolerance\n" !compared
