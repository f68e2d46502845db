(* The AST-level rules, written against the 5.1 compiler-libs parsetree.
   Everything here is syntactic: the linter runs before (and without)
   type-checking, so the structured-operand tests are shape heuristics
   chosen to have near-zero false positives — a bare identifier is never
   flagged, a tuple / record / constructor / float literal always is.

   The hot-body discipline is factored as a *fact* collector
   ([binding_facts]): the same walk that backs the intraprocedural
   hot-alloc / no-mutex rules also summarizes every other function so
   the interprocedural pass (Hotset) can apply the discipline across
   call boundaries without re-parsing. *)

open Parsetree

type config = {
  hot_modules : string list;  (* path fragments of designated hot-path modules *)
  domsafe_modules : string list;  (* lane-visible modules of the multicore dataplane *)
  exn_ban_paths : string list;  (* path fragments where No_failwith applies *)
  wallclock_allow : string list;  (* path fragments where wall-clock reads are legal *)
  require_mli : bool;
}

let default =
  {
    hot_modules =
      [
        "net/wire.ml";
        "telemetry/rolling.ml";
        "dataplane/fabric.ml";
        "dataplane/seq_tracker.ml";
        "dataplane/flow_cache.ml";
        "dataplane/batch.ml";
        "sim/shard.ml";
        "core/pop.ml";
        "core/throughput.ml";
        "obs/metric.ml";
        "obs/trace.ml";
        "faults/spec.ml";
        "faults/inject.ml";
        "ctrl/watch.ml";
        "ctrl/channel.ml";
        "mesh/segment.ml";
        "mesh/arbor.ml";
        "mesh/relay.ml";
        "mesh/mtopo.ml";
        "mesh/attest.ml";
      ];
    domsafe_modules =
      [
        "sim/shard.ml";
        "core/throughput.ml";
        "dataplane/batch.ml";
        "dataplane/fabric.ml";
      ];
    exn_ban_paths = [ "lib/dataplane/"; "lib/net/" ];
    wallclock_allow = [ "obs/manifest.ml" ];
    require_mli = true;
  }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  m = 0 || go 0

let path_matches path fragments = List.exists (contains_sub path) fragments

(* ------------------------------------------------------------------ *)
(* Shared shape helpers                                                 *)

let rec strip_wrappers e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_wrappers e
  | _ -> e

let float_ident = function
  | "nan" | "infinity" | "neg_infinity" | "epsilon_float" | "max_float" | "min_float" ->
      true
  | _ -> false

let float_op = function "+." | "-." | "*." | "/." | "**" -> true | _ -> false

(* Syntactically certain to be a float at runtime. *)
let is_float_like e =
  match (strip_wrappers e).pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Longident.Lident id; _ } -> float_ident id
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, args) ->
      float_op op || (String.equal op "~-." && (match args with [] -> false | _ -> true))
  | _ -> false

(* Syntactically certain to be a boxed / structured value: comparing it
   polymorphically walks memory (and a custom comparator exists). *)
let is_structured e =
  match (strip_wrappers e).pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_constant (Pconst_string _) -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_construct ({ txt = Longident.Lident ("[]" | "::" | "None"); _ }, None) -> true
  | Pexp_variant (_, Some _) -> true
  | _ -> false

let loc_finding ~file ~(loc : Location.t) rule message =
  Rules.v ~file ~line:loc.loc_start.pos_lnum
    ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    rule message

let head_module = function
  | Longident.Ldot (Longident.Lident m, _) -> Some m
  | _ -> None

(* ------------------------------------------------------------------ *)
(* R2 (+R2b) and R3: one pass over every expression in the file         *)

let poly_and_exn_pass config ~file structure =
  let findings = ref [] in
  let add ~loc rule message = findings := loc_finding ~file ~loc rule message :: !findings in
  let ban_exns = path_matches file config.exn_ban_paths in
  let check_equality ~loc op a b =
    if is_float_like a || is_float_like b then
      add ~loc Rules.Float_equal
        (Printf.sprintf
           "float (%s) is a NaN hazard on this operand; use Float.equal / Float.compare"
           op)
    else if is_structured a || is_structured b then
      add ~loc Rules.Poly_compare
        (Printf.sprintf
           "polymorphic (%s) on a structured operand; use a monomorphic equal \
            (String.equal, Option.is_none, List.is_empty, a custom comparator)"
           op)
  in
  let check_poly_fn ~loc name args =
    let operands = List.map snd args in
    if List.exists is_float_like operands then
      add ~loc Rules.Float_equal
        (Printf.sprintf "polymorphic %s on a float operand; use Float.%s" name name)
    else if List.exists is_structured operands then
      add ~loc Rules.Poly_compare
        (Printf.sprintf "polymorphic %s on a structured operand; use a monomorphic %s"
           name name)
  in
  let check_exn_expr e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident (("failwith" | "invalid_arg") as f); _ } ->
        add ~loc:e.pexp_loc Rules.No_failwith
          (Printf.sprintf
             "%s in a per-packet library; raise a declared exception (Err.Invalid) \
              or return a result"
             f)
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("raise" | "raise_notrace"); _ }; _ },
          (_, arg) :: _ ) -> begin
        match (strip_wrappers arg).pexp_desc with
        | Pexp_construct
            ({ txt = Longident.Lident (("Invalid_argument" | "Failure") as exn); _ }, _) ->
            add ~loc:e.pexp_loc Rules.No_failwith
              (Printf.sprintf
                 "raising %s in a per-packet library; declare the exception instead" exn)
        | _ -> ()
      end
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
          [ (_, a); (_, b) ] ) ->
        check_equality ~loc:e.pexp_loc op a b
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("compare" | "min" | "max") as f); _ }; _ },
          args )
      when (match args with [] -> false | _ -> true) ->
        check_poly_fn ~loc:e.pexp_loc f args
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (Longident.Lident "Hashtbl", "hash"); _ }; _ },
          args )
      when List.exists (fun (_, a) -> is_structured a) args ->
        add ~loc:e.pexp_loc Rules.Poly_compare
          "Hashtbl.hash on a structured operand walks the heap polymorphically; \
           combine component hashes instead"
    | _ -> ());
    if ban_exns then check_exn_expr e;
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it structure;
  !findings

(* ------------------------------------------------------------------ *)
(* Hot-body facts: the R1/R1b discipline as data                        *)

type fact_kind = Alloc | Block

type fact = { f_line : int; f_col : int; f_kind : fact_kind; f_msg : string }

let has_hot_attr attrs =
  List.exists
    (fun a -> match a.attr_name.txt with "hot" | "tango.hot" -> true | _ -> false)
    attrs

let fact_of ~(loc : Location.t) kind msg =
  {
    f_line = loc.loc_start.pos_lnum;
    f_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    f_kind = kind;
    f_msg = msg;
  }

let body_facts body =
  let facts = ref [] in
  let add ~loc message = facts := fact_of ~loc Alloc message :: !facts in
  let add_blocking ~loc message = facts := fact_of ~loc Block message :: !facts in
  (* R1b: the packet path is lock-free — a blocking primitive inside a
     [@hot] body stalls its whole domain (and, through the stop-the-world
     rendezvous, every other lane too). Domain.cpu_relax is the one
     permitted Domain call: it is the spin-wait hint, not a block. *)
  let check_blocking ~loc lid =
    match lid with
    | Longident.Ldot (Longident.Lident (("Mutex" | "Condition" | "Semaphore") as m), _)
      ->
        add_blocking ~loc
          (Printf.sprintf
             "%s on the hot path can block the domain; the packet path is \
              lock-free by design"
             m)
    | Longident.Ldot (Longident.Ldot (Longident.Lident "Semaphore", _), _) ->
        add_blocking ~loc
          "Semaphore on the hot path can block the domain; the packet path is \
           lock-free by design"
    | Longident.Ldot (Longident.Lident "Domain", fn)
      when not (String.equal fn "cpu_relax") ->
        add_blocking ~loc
          (Printf.sprintf
             "Domain.%s on the hot path blocks or forks the domain; only \
              Domain.cpu_relax is allowed in [@hot] bodies"
             fn)
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  (* One fact per closure, not per curried parameter: strip the whole
     lambda chain before recursing so [fun a b -> ...] reports once. *)
  let rec strip_lambda_chain defaults e =
    match e.pexp_desc with
    | Pexp_fun (_, default, _, body) ->
        let defaults =
          match default with Some d -> d :: defaults | None -> defaults
        in
        strip_lambda_chain defaults body
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) ->
        strip_lambda_chain defaults body
    | _ -> (defaults, e)
  in
  let rec expr it e =
    match e.pexp_desc with
    | Pexp_fun _ ->
        add ~loc:e.pexp_loc
          "closure allocated on the hot path (also covers partial application \
           staged through a lambda)";
        let defaults, body = strip_lambda_chain [] e in
        List.iter (expr it) defaults;
        expr it body
    (* [a :: b] parses as a constructor carrying a tuple; flag the cons
       cell once and recurse into the elements, not the carrier tuple. *)
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some arg) ->
        add ~loc:e.pexp_loc "list cell allocated on the hot path";
        (match (strip_wrappers arg).pexp_desc with
        | Pexp_tuple comps -> List.iter (expr it) comps
        | _ -> expr it arg)
    | _ -> expr_tail it e
  and expr_tail it e =
    (match e.pexp_desc with
    | Pexp_function _ ->
        add ~loc:e.pexp_loc
          "closure allocated on the hot path (also covers partial application \
           staged through a lambda)"
    | Pexp_tuple _ -> add ~loc:e.pexp_loc "tuple allocated on the hot path"
    | Pexp_record _ -> add ~loc:e.pexp_loc "record allocated on the hot path"
    | Pexp_array _ -> add ~loc:e.pexp_loc "array allocated on the hot path"
    (* Flag on the identifier, not the application, so recursing into
       the callee cannot report the same occurrence twice. *)
    | Pexp_ident { txt = lid; _ } -> begin
        check_blocking ~loc:e.pexp_loc lid;
        match head_module lid with
        | Some (("Printf" | "Format") as m) ->
            add ~loc:e.pexp_loc
              (Printf.sprintf "%s call on the hot path allocates and formats" m)
        | Some "Queue" ->
            add ~loc:e.pexp_loc
              "Queue on the hot path boxes every element; use a flat ring instead"
        | _ -> ()
      end
    | _ -> ());
    (* Tuple-keyed Hashtbl traffic: the key itself is an allocation per
       packet plus a polymorphic hash walk. *)
    (match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Ldot (Longident.Lident "Hashtbl", _); _ }; _ },
          args )
      when List.exists (fun (_, a) -> match (strip_wrappers a).pexp_desc with
             | Pexp_tuple _ -> true
             | _ -> false)
             args ->
        add ~loc:e.pexp_loc "tuple-keyed Hashtbl on the hot path; pack the key into an int"
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it body;
  List.rev !facts

(* Walk past the binding's own parameter list: the outermost lambda
   chain IS the function, not an allocation — but per-call default
   argument expressions are checked. *)
let rec binding_facts e =
  match e.pexp_desc with
  | Pexp_fun (_, default, _, body) ->
      let defaults = match default with Some d -> body_facts d | None -> [] in
      defaults @ binding_facts body
  | Pexp_newtype (_, body) -> binding_facts body
  | Pexp_constraint (body, _) -> binding_facts body
  | _ -> body_facts e

let finding_of_fact ~file fact =
  let rule = match fact.f_kind with Alloc -> Rules.Hot_alloc | Block -> Rules.No_mutex_hot in
  Rules.v ~file ~line:fact.f_line ~col:fact.f_col rule fact.f_msg

(* ------------------------------------------------------------------ *)
(* R1 + R1b: the facts of [@hot] bodies become findings directly        *)

let hot_pass config ~file structure =
  if not (path_matches file config.hot_modules) then []
  else begin
    let findings = ref [] in
    let super = Ast_iterator.default_iterator in
    let value_binding it vb =
      if has_hot_attr vb.pvb_attributes then
        findings :=
          List.map (finding_of_fact ~file) (binding_facts vb.pvb_expr) @ !findings
      else super.value_binding it vb
    in
    let it = { super with value_binding } in
    it.structure it structure;
    !findings
  end

(* The domain-safety (Domsafe) and determinism (Determinism) passes are
   composed with these two in Engine — they live downstream of this
   module and reuse its helpers. *)
let check_structure config ~file structure =
  hot_pass config ~file structure @ poly_and_exn_pass config ~file structure
