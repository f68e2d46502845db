(** Driver: file discovery, per-file summaries, whole-program passes,
    the dead-export check, waiver application. *)

type result = {
  files : string list;  (** every .ml and .mli scanned, sorted within each root *)
  findings : Rules.finding list;
      (** unwaived findings, report order — these fail the run *)
  waived : (Rules.finding * string) list;
      (** suppressed findings with the waiver's recorded reason *)
}

val run : ?config:Ast_check.config -> string list -> result
(** The full pipeline over every .ml under the given files/directories,
    plus [dead-export] over every .mli among them. The readers of the
    exports are the programs: the .ml files scanned plus, for each root
    directory, those under its siblings [bin/], [bench/] and
    [examples/]. A test file is read only where a test-hook marker
    names it. *)

(* test-hook: test/test_lint.ml *)
val lint_file :
  ?config:Ast_check.config -> string -> Rules.finding list * (Rules.finding * string) list
(** Lint one file with the local passes only (no call graph and no
    dead-export check); returns (unwaived, waived). What the fixture
    tests drive, one rule at a time. *)
