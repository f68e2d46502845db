(** Minimal strict JSON reader for machine-written artifacts
    (BENCH.json, --metrics JSON-lines), and the one string escaper
    their writers share. Cold path: the regression gate and the schema
    validator parse with it; nothing in the simulator does. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Carries ["<reason> at byte <offset>"]. *)

val parse : string -> t
(** Parse one complete JSON value; trailing garbage is an error.
    [\uXXXX] escapes outside ASCII decode as ['?']. *)

val escape : string -> string
(** [s] escaped for the inside of a JSON string literal: a double
    quote or a backslash gets a backslash before it, a newline becomes
    the two characters backslash-n, and every other control character
    a backslash-u escape with four hex digits. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup; [None] when absent or not an object. *)

val number_opt : t option -> float option

val string_opt : t option -> string option

(* test-hook: test/validate_obs.ml *)
val int_opt : t option -> int option
(** [Some] only for numbers with no fractional part: how the obs
    validator reads integer fields. *)
