(* Domain-safety rules for the lane-visible modules of the multicore
   dataplane (DESIGN.md §11-12): sim/shard, core/throughput,
   dataplane/batch, dataplane/fabric.

   The pass is purely syntactic, so "lane-shared state" is identified by
   the one marker the untyped AST does expose: a record type that
   carries an [Atomic.t] field is the cross-domain handoff structure
   (an SPSC ring, say; the lanes have none left). The sanctioned
   publication pattern writes plain
   array slots (or plain fields) and then publishes them with a single
   [Atomic.set] of the cursor — those plain writes go through immutable
   fields holding arrays, so they are invisible to this rule by
   construction. What the rule does see, and flags, is a *plain mutable
   field* declared next to the Atomic cursor being written directly:
   that write has no publication edge, and a consumer on another domain
   may never observe it (or observe it torn out of order).

   Two module-wide rules ride along: Mutex/Condition/Semaphore anywhere
   in a lane-visible module (hot-annotated or not — Domsafe_blocking;
   inside [@hot] bodies the intraprocedural No_mutex_hot already fires,
   so this pass skips those bodies to keep findings unique), and
   [Domain.self]-dependent control flow (Domain_self): lane behaviour
   must be a function of the lane id and the seed, never of which
   domain the scheduler happened to pick. *)

open Parsetree

(* Does a core type mention [Atomic.t] anywhere? *)
let rec mentions_atomic (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, args) ->
      (match txt with
      | Longident.Ldot (Longident.Lident "Atomic", "t") -> true
      | _ -> false)
      || List.exists mentions_atomic args
  | Ptyp_tuple ts -> List.exists mentions_atomic ts
  | Ptyp_arrow (_, a, b) -> mentions_atomic a || mentions_atomic b
  | Ptyp_alias (t, _) | Ptyp_poly (_, t) -> mentions_atomic t
  | _ -> false

(* Mutable labels of record types that also carry an Atomic.t field:
   the lane-shared types. Label names are matched textually at the
   write site — the untyped AST cannot resolve the record type of a
   [Pexp_setfield], so a same-named mutable label on a lane-local type
   would be a false positive; none exists in the tree, and a genuine
   one can be waived with a reason. *)
let shared_mutable_labels structure =
  let labels = ref [] in
  let scan_type_decl (td : type_declaration) =
    match td.ptype_kind with
    | Ptype_record fields ->
        let has_atomic =
          List.exists (fun f -> mentions_atomic f.pld_type) fields
        in
        if has_atomic then
          List.iter
            (fun f ->
              match f.pld_mutable with
              | Mutable when not (mentions_atomic f.pld_type) ->
                  labels := f.pld_name.txt :: !labels
              | _ -> ())
            fields
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let type_declaration it td =
    scan_type_decl td;
    super.type_declaration it td
  in
  let it = { super with type_declaration } in
  it.structure it structure;
  !labels

let last_segment = function
  | Longident.Lident l -> l
  | Longident.Ldot (_, l) -> l
  | Longident.Lapply _ -> ""

let pass ~lane_visible ~file structure =
  if not lane_visible then []
  else begin
    let findings = ref [] in
    let add ~loc rule message =
      findings := Ast_check.loc_finding ~file ~loc rule message :: !findings
    in
    let shared = shared_mutable_labels structure in
    (* [in_hot] suppresses the blocking rule inside [@hot] bodies, where
       the intraprocedural No_mutex_hot already reports the same site. *)
    let in_hot = ref false in
    let super = Ast_iterator.default_iterator in
    let expr it e =
      (match e.pexp_desc with
      | Pexp_setfield (_, { txt = label; _ }, _)
        when List.mem (last_segment label) shared ->
          add ~loc:e.pexp_loc Rules.Domsafe_mutation
            (Printf.sprintf
               "plain write to mutable field %S of a lane-shared record (its \
                type carries an Atomic.t cursor); publish through the \
                Atomic-cursor ring pattern instead — this store has no \
                happens-before edge to the consuming domain"
               (last_segment label))
      | Pexp_ident
          { txt = Longident.Ldot (Longident.Lident (("Mutex" | "Condition" | "Semaphore") as m), _); _ }
        when not !in_hot ->
          add ~loc:e.pexp_loc Rules.Domsafe_blocking
            (Printf.sprintf
               "%s in a lane-visible module; the multicore dataplane is \
                lock-free end to end — blocking any lane stalls its domain \
                and, through the stop-the-world rendezvous, every other lane"
               m)
      | Pexp_ident
          { txt = Longident.Ldot (Longident.Ldot (Longident.Lident "Semaphore", _), _); _ }
        when not !in_hot ->
          add ~loc:e.pexp_loc Rules.Domsafe_blocking
            "Semaphore in a lane-visible module; the multicore dataplane is \
             lock-free end to end"
      | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Domain", "self"); _ } ->
          add ~loc:e.pexp_loc Rules.Domain_self
            "Domain.self in a lane-visible module: lane behaviour must depend \
             on the lane id and the seed, never on which domain the scheduler \
             picked — seeded runs stop being reproducible otherwise"
      | _ -> ());
      super.expr it e
    in
    let value_binding it vb =
      if Ast_check.has_hot_attr vb.pvb_attributes then begin
        let saved = !in_hot in
        in_hot := true;
        super.value_binding it vb;
        in_hot := saved
      end
      else super.value_binding it vb
    in
    let it = { super with expr; value_binding } in
    it.structure it structure;
    !findings
  end
