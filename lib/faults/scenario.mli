(** Named, curated fault schedules.

    A scenario is just a name, a sentence, and a {!Spec.t} list with
    onsets relative to arming time — the unit the CLI exposes
    ([tango_cli faults --scenario flap]) and E12 sweeps. Times assume
    the harness default of a ~30 s measurement window. *)

type t = {
  name : string;
  description : string;
  specs : Spec.t list;
}

val all : t list
(** Every built-in scenario, in documentation order. *)

val get : string -> t
(** Lookup by exact name; raises {!Err.Invalid} with the known names on a
    miss — the CLI error path. *)
