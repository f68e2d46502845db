(** Snapshot renderers for the obs registry: JSON-lines (one
    self-contained object per line, manifest first) and Prometheus text
    exposition format. Cold path — runs once per exported run. The
    line-level schema is documented in EXPERIMENTS.md. *)

type event = { time : float; kind : string; a : int; b : int }

type snapshot = { metrics : Metric.view list; events : event list }

(* test-hook: test/test_obs.ml *)
val snapshot : ?trace:Trace.t -> unit -> snapshot
(** Capture every registered metric plus the live trace records
    (oldest-first) from [trace] (default {!Trace.default}). What
    {!with_recording} renders; the tests render snapshots they build. *)

(* test-hook: test/validate_obs.ml *)
val schema_version : int
(** Version stamped into the manifest line; bumped on any incompatible
    shape change. The obs validator checks a metrics file against it. *)

(* test-hook: test/test_obs.ml *)
val to_jsonl : ?manifest:Manifest.t -> snapshot -> string
(** JSON-lines rendering: the manifest line (when given), then one line
    per counter/gauge/histogram, then one line per trace event.
    Non-finite floats render as [null]. *)

(* test-hook: test/test_obs.ml *)
val to_prometheus : snapshot -> string
(** Prometheus text format: metric names prefixed [tango_], histograms
    as cumulative [_bucket{le="..."}] series plus [_sum]/[_count].
    Trace events and the manifest have no Prometheus representation and
    are omitted. *)

val with_recording :
  experiment:string ->
  seed:int ->
  config:string ->
  metrics:string option ->
  prom:string option ->
  (unit -> unit) ->
  unit
(** [with_recording ~experiment ~seed ~config ~metrics ~prom f] runs
    [f]. When [metrics] or [prom] names a file, the run is recorded:
    metric values and the default trace are reset, recording is on
    while [f] runs, and afterwards the snapshot is written to [metrics]
    as {!to_jsonl} output, with a {!Manifest} of [experiment], [seed]
    and [config], and to [prom] as {!to_prometheus} output. With
    neither, [f] just runs. Prints nothing. *)
