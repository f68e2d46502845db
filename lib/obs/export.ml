(* Snapshot renderers: JSON-lines (one self-contained object per line,
   manifest first) and Prometheus text format. Schema documented in
   EXPERIMENTS.md; bump [schema_version] on any incompatible change.
   This is the cold path — it runs once per exported run. *)

type event = { time : float; kind : string; a : int; b : int }

type snapshot = { metrics : Metric.view list; events : event list }

let snapshot ?(trace = Trace.default) () =
  let events = ref [] in
  Trace.iter trace (fun ~time ~kind ~a ~b ->
      events := { time; kind = Trace.kind_name kind; a; b } :: !events);
  { metrics = Metric.views (); events = List.rev !events }

(* ------------------------------------------------------------------ *)
(* JSON-lines                                                          *)

let schema_version = 1

(* JSON has no inf/nan literals; non-finite values render as null. *)
let add_float b v =
  if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.12g" v)
  else Buffer.add_string b "null"

let add_string b s =
  Buffer.add_char b '"';
  Buffer.add_string b (Json.escape s);
  Buffer.add_char b '"'

let add_manifest b (m : Manifest.t) =
  Buffer.add_string b "{\"type\":\"manifest\",\"schema_version\":";
  Buffer.add_string b (string_of_int schema_version);
  Buffer.add_string b ",\"tool\":\"tango-obs\",\"experiment\":";
  add_string b m.Manifest.experiment;
  Buffer.add_string b ",\"seed\":";
  Buffer.add_string b (string_of_int m.Manifest.seed);
  Buffer.add_string b ",\"config_digest\":";
  add_string b m.Manifest.config_digest;
  Buffer.add_string b ",\"started_unix_s\":";
  add_float b m.Manifest.started_unix_s;
  Buffer.add_string b ",\"wall_s\":";
  add_float b m.Manifest.wall_s;
  Buffer.add_string b ",\"virtual_s\":";
  add_float b m.Manifest.virtual_s;
  Buffer.add_string b ",\"sim_events\":";
  Buffer.add_string b (string_of_int m.Manifest.sim_events);
  Buffer.add_string b ",\"trace_recorded\":";
  Buffer.add_string b (string_of_int m.Manifest.trace_recorded);
  Buffer.add_string b ",\"trace_dropped\":";
  Buffer.add_string b (string_of_int m.Manifest.trace_dropped);
  Buffer.add_string b "}\n"

let add_metric b (v : Metric.view) =
  (match v.Metric.value with
  | Metric.Counter_value n ->
      Buffer.add_string b "{\"type\":\"counter\",\"name\":";
      add_string b v.Metric.name;
      Buffer.add_string b ",\"help\":";
      add_string b v.Metric.help;
      Buffer.add_string b ",\"value\":";
      Buffer.add_string b (string_of_int n)
  | Metric.Gauge_value g ->
      Buffer.add_string b "{\"type\":\"gauge\",\"name\":";
      add_string b v.Metric.name;
      Buffer.add_string b ",\"help\":";
      add_string b v.Metric.help;
      Buffer.add_string b ",\"value\":";
      add_float b g
  | Metric.Histogram_value { upper_bounds; counts; sum; count } ->
      Buffer.add_string b "{\"type\":\"histogram\",\"name\":";
      add_string b v.Metric.name;
      Buffer.add_string b ",\"help\":";
      add_string b v.Metric.help;
      Buffer.add_string b ",\"le\":[";
      Array.iteri
        (fun i bound ->
          if i > 0 then Buffer.add_char b ',';
          add_float b bound)
        upper_bounds;
      Buffer.add_string b "],\"counts\":[";
      Array.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int c))
        counts;
      Buffer.add_string b "],\"sum\":";
      add_float b sum;
      Buffer.add_string b ",\"count\":";
      Buffer.add_string b (string_of_int count));
  Buffer.add_string b "}\n"

let add_event b e =
  Buffer.add_string b "{\"type\":\"event\",\"t\":";
  add_float b e.time;
  Buffer.add_string b ",\"kind\":";
  add_string b e.kind;
  Buffer.add_string b ",\"a\":";
  Buffer.add_string b (string_of_int e.a);
  Buffer.add_string b ",\"b\":";
  Buffer.add_string b (string_of_int e.b);
  Buffer.add_string b "}\n"

let to_jsonl ?manifest snap =
  let b = Buffer.create 4096 in
  (match manifest with None -> () | Some m -> add_manifest b m);
  List.iter (add_metric b) snap.metrics;
  List.iter (add_event b) snap.events;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Prometheus text format                                              *)

(* Prometheus exposition renders non-finite values as +Inf/-Inf/NaN. *)
let prom_float v =
  if Float.is_finite v then Printf.sprintf "%.12g" v
  else if Float.is_nan v then "NaN"
  else if v > 0.0 then "+Inf"
  else "-Inf"

let prom_name name = "tango_" ^ name

let add_prom_header b name help kind =
  if String.length help > 0 then begin
    Buffer.add_string b "# HELP ";
    Buffer.add_string b name;
    Buffer.add_char b ' ';
    String.iter
      (fun c -> if c = '\n' then Buffer.add_char b ' ' else Buffer.add_char b c)
      help;
    Buffer.add_char b '\n'
  end;
  Buffer.add_string b "# TYPE ";
  Buffer.add_string b name;
  Buffer.add_char b ' ';
  Buffer.add_string b kind;
  Buffer.add_char b '\n'

let add_prom_metric b (v : Metric.view) =
  let name = prom_name v.Metric.name in
  match v.Metric.value with
  | Metric.Counter_value n ->
      add_prom_header b name v.Metric.help "counter";
      Buffer.add_string b (Printf.sprintf "%s %d\n" name n)
  | Metric.Gauge_value g ->
      add_prom_header b name v.Metric.help "gauge";
      Buffer.add_string b (Printf.sprintf "%s %s\n" name (prom_float g))
  | Metric.Histogram_value { upper_bounds; counts; sum; count } ->
      add_prom_header b name v.Metric.help "histogram";
      let cumulative = ref 0 in
      Array.iteri
        (fun i bound ->
          cumulative := !cumulative + counts.(i);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (prom_float bound)
               !cumulative))
        upper_bounds;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name count);
      Buffer.add_string b (Printf.sprintf "%s_sum %s\n" name (prom_float sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" name count)

let to_prometheus snap =
  let b = Buffer.create 4096 in
  List.iter (add_prom_metric b) snap.metrics;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Recorded runs                                                       *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let with_recording ~experiment ~seed ~config ~metrics ~prom f =
  match (metrics, prom) with
  | None, None -> f ()
  | _ ->
      Metric.reset_values ();
      Trace.clear Trace.default;
      Metric.set_enabled true;
      let session = Manifest.start ~experiment ~seed ~config () in
      f ();
      Metric.set_enabled false;
      (* Registration is idempotent: the engine's handles come back by
         name. *)
      let manifest =
        Manifest.finish session
          ~virtual_s:(Metric.gauge_value (Metric.gauge "sim_virtual_time_seconds"))
          ~sim_events:(Metric.counter_value (Metric.counter "sim_events_total"))
          Trace.default
      in
      let snap = snapshot () in
      Option.iter (fun path -> write_file path (to_jsonl ~manifest snap)) metrics;
      Option.iter (fun path -> write_file path (to_prometheus snap)) prom
