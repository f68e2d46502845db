(** Rendering of lint results: compiler-style text diagnostics and the
    machine-readable JSON report (schema_version 3, documented in
    EXPERIMENTS.md). SARIF export lives in {!Sarif}. *)

val text : out_channel -> Engine.result -> unit
(** One [file:line:col: [rule] message] line per finding (with an
    indented call-chain line for interprocedural findings), then a
    summary trailer. *)

val json : out_channel -> Engine.result -> unit
(** Stable [schema_version 3] JSON object with [findings] (carrying
    [chain] for interprocedural findings), [waived] and a [summary]. *)
