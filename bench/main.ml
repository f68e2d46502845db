(* Experiment harness entry point.

   Usage:
     dune exec bench/main.exe                 # every experiment + microbenches
     dune exec bench/main.exe -- --experiment fig3
     dune exec bench/main.exe -- --horizon 120 --csv out/
     dune exec bench/main.exe -- --experiment failover --metrics obs.jsonl
   Experiments regenerate the paper's figures/tables (see DESIGN.md and
   EXPERIMENTS.md for the per-experiment index). [--metrics]/[--prom]
   turn the lib/obs recording switch on for the selected experiments and
   write the snapshot afterwards (schema in EXPERIMENTS.md); without
   them recording stays off and output is byte-identical. *)

let experiments =
  [
    ("fig3", Experiments.fig3);
    ("fig4-left", Experiments.fig4_left);
    ("fig4-middle", Experiments.fig4_middle);
    ("fig4-right", Experiments.fig4_right);
    ("jitter", Experiments.jitter);
    ("policy-ablation", Experiments.policy_ablation);
    ("measurement-ablation", Experiments.measurement_ablation);
    ("tango-of-n", Experiments.tango_of_n);
    ("failover", Experiments.failover);
    ("mrai", Experiments.mrai_sweep);
    ("throughput", Experiments.throughput);
    ("discovery-cost", Experiments.discovery_cost);
    ("failover-under-fault", Experiments.failover_under_fault);
    ("rediscovery-under-churn", Experiments.rediscovery_under_churn);
    ("throughput-scaling", Experiments.throughput_scaling);
    ("mesh-scaling", Experiments.mesh_scaling);
    ("load-engine", Experiments.load_engine);
    ("verifiable-forwarding", Experiments.verifiable_forwarding);
  ]

(* E14 prints wall-clock rows, which are inherently nondeterministic, so
   it only runs when selected explicitly — the default full run stays
   byte-comparable across seeds (the determinism sweep in test/dune).
   E15 is fully deterministic but sweeps six mesh sizes, so it too runs
   only on request (the seed sweep pins it separately). E16 sweeps up to
   10^6 flows and prints Mpps rows, so it is likewise opt-in (`make
   load-smoke` pins a narrowed point). E17 runs 4 scenarios x 3 seeds of
   the attested mesh, so it is opt-in too (`make attest-smoke` pins it). *)
let default_ids =
  List.filter
    (fun id ->
      id <> "throughput-scaling" && id <> "mesh-scaling" && id <> "load-engine"
      && id <> "verifiable-forwarding")
    (List.map fst experiments)

let () =
  let selected = ref [] in
  let run_micro = ref true in
  let json_path = ref None in
  let metrics_path = ref None in
  let prom_path = ref None in
  let spec =
    [
      ( "--experiment",
        Arg.String (fun s -> selected := s :: !selected),
        "ID  run one experiment (repeatable); one of: "
        ^ String.concat ", " (List.map fst experiments)
        ^ ", micro" );
      ( "--horizon",
        Arg.Float (fun h -> Experiments.horizon := h),
        "SECONDS  measurement-study horizon (default 600)" );
      ( "--seed",
        Arg.Int (fun s -> Experiments.exp_seed := s),
        "N  run seed for every experiment that owns an engine (default 42)" );
      ( "--probe-interval",
        Arg.Float (fun i -> Experiments.probe_interval := i),
        "SECONDS  probe spacing (default 0.01, as in the paper)" );
      ( "--domains",
        Arg.Int (fun d -> Experiments.tp_domains := d),
        "K  throughput-scaling (E14): run only K domain lanes (default: \
         sweep 1, 2, 4)" );
      ( "--batch",
        Arg.Int (fun b -> Experiments.tp_batch := b),
        "N  throughput-scaling (E14): flush batches at N packets (default: \
         sweep 1, 64)" );
      ( "--pops",
        Arg.Int (fun n -> Experiments.mesh_pops := n),
        "N  mesh-scaling (E15): run only the N-PoP mesh (default: sweep 4, \
         8, 16, 32, 64, 128)" );
      ( "--flows",
        Arg.Int (fun n -> Experiments.load_flows := n),
        "N  load-engine (E16): run only the N-flow point (default: sweep \
         10^3, 10^4, 10^5, 10^6)" );
      ( "--csv",
        Arg.String (fun d -> Experiments.csv_dir := Some d),
        "DIR  also write figure series as CSV into DIR" );
      ("--no-micro", Arg.Clear run_micro, " skip the bechamel microbenchmarks");
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "PATH  also write the microbenchmark results (ns/op, minor/major \
         words/op) as JSON to PATH; implies the microbenchmarks run" );
      ( "--metrics",
        Arg.String (fun p -> metrics_path := Some p),
        "PATH  turn obs recording on and write the metric/trace snapshot as \
         JSON-lines to PATH (schema in EXPERIMENTS.md)" );
      ( "--prom",
        Arg.String (fun p -> prom_path := Some p),
        "PATH  turn obs recording on and write the metric snapshot in \
         Prometheus text format to PATH" );
    ]
  in
  Arg.parse spec
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "tango benchmark harness";
  let to_run =
    match List.rev !selected with
    | [] -> default_ids @ (if !run_micro then [ "micro" ] else [])
    | l -> l
  in
  (* --json needs the micro rows even when the selection skips them. *)
  let to_run =
    if Option.is_some !json_path && not (List.mem "micro" to_run) then
      to_run @ [ "micro" ]
    else to_run
  in
  Printf.printf "Tango reproduction harness — HotNets '22\n";
  (* Every id is checked before any experiment runs: a typo at the end
     of a long selection must not cost the runs before it. *)
  (match
     List.find_opt (fun id -> id <> "micro" && not (List.mem_assoc id experiments)) to_run
   with
  | Some id ->
      Printf.eprintf "unknown experiment %S; known: %s, micro\n" id
        (String.concat ", " (List.map fst experiments));
      exit 2
  | None -> ());
  Tango_obs.Export.with_recording
    ~experiment:(String.concat "," to_run)
    ~seed:!Experiments.exp_seed
    ~config:
      (Printf.sprintf "bench horizon=%g probe_interval=%g seed=%d"
         !Experiments.horizon !Experiments.probe_interval !Experiments.exp_seed)
    ~metrics:!metrics_path ~prom:!prom_path
    (fun () ->
      List.iter
        (fun id ->
          if id = "micro" then begin
            let rows = Micro.run_measured () in
            match !json_path with
            | None -> ()
            | Some path -> (
                match Micro.write_json path rows with
                | () ->
                    Printf.printf "  [microbenchmark results written to %s]\n"
                      path
                | exception Sys_error msg ->
                    Printf.eprintf "cannot write benchmark JSON: %s\n" msg;
                    exit 2)
          end
          else (List.assoc id experiments) ())
        to_run);
  List.iter
    (Printf.printf "  [obs snapshot written to %s]\n")
    (List.filter_map Fun.id [ !metrics_path; !prom_path ]);
  Printf.printf "\nDone.\n"
