(* Whole-lib/ call graph over the untyped parsetree.

   Each file is reduced to a [summary]: its local findings, its waiver
   inventory, and one [binding] per named function — carrying the hot
   attribute, the allocation/blocking facts of its body
   (Ast_check.binding_facts) and the identifiers it references. The
   graph layer resolves those references across module boundaries so
   Hotset can chase the transitive closure of the [@hot] roots.

   Resolution is name-based, not type-based — the linter runs without
   the typer — and leans on the repo's layout conventions:

   - [Lident f] resolves to a binding named [f] in the same file (a
     local let, or a nested one registered under its bare name);
   - [M.f] resolves, in order, to a binding [M.f] of the same file (a
     submodule), to [f] in the sibling file [m.ml] of the same
     directory (same wrapped library), or through a module alias
     ([module M = Tango_x.Y]) collected from the file;
   - [Tango_x.M.f] resolves through the library map — built by reading
     [(name ...)] out of each [lib/*/dune] — to [lib/x/m.ml#f];
   - [open]ed modules are tried as prefixes last.

   Unresolvable references (stdlib, functor-generated code such as the
   [Tango_err.Make] instances, shadowed locals) terminate the chain
   silently: the analysis is deliberately a conservative
   under-approximation across those boundaries, documented in
   DESIGN.md §12. *)

open Parsetree

type call = { c_target : string; c_line : int; c_col : int }

type binding = {
  b_name : string;  (* dotted path within the file, e.g. "Ring.push" *)
  b_line : int;
  b_col : int;
  b_hot : bool;
  b_facts : Ast_check.fact list;
  b_calls : call list;
}

type summary = {
  s_path : string;
  s_findings : Rules.finding list;  (* local-pass findings, pre-waiver *)
  s_waivers : Waivers.t list;
  s_waiver_findings : Rules.finding list;  (* malformed-waiver findings *)
  s_opens : string list;
  s_bindings : binding list;
}

(* ------------------------------------------------------------------ *)
(* Extraction                                                           *)

let flatten_longident lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply (l, _) -> go acc l
  in
  String.concat "." (go [] lid)

let aliases structure =
  let aliases = ref [] in
  let add name me =
    match (name, me.pmod_desc) with
    | Some name, Pmod_ident { txt; _ } ->
        aliases := (name, flatten_longident txt) :: !aliases
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let module_binding it mb =
    add mb.pmb_name.txt mb.pmb_expr;
    super.module_binding it mb
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_letmodule ({ txt; _ }, me, _) -> add txt me
    | _ -> ());
    super.expr it e
  in
  let it = { super with module_binding; expr } in
  it.structure it structure;
  !aliases

let collect_opens structure =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
          Some (flatten_longident txt)
      | _ -> None)
    structure

let expand_alias aliases dotted =
  let i = Option.value ~default:(String.length dotted) (String.index_opt dotted '.') in
  match List.assoc_opt (String.sub dotted 0 i) aliases with
  | Some target -> target ^ String.sub dotted i (String.length dotted - i)
  | None -> dotted

let collect_calls aliases body =
  let calls = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        calls :=
          {
            c_target = expand_alias aliases (flatten_longident txt);
            c_line = loc.loc_start.pos_lnum;
            c_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
          }
          :: !calls
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it body;
  List.rev !calls

(* Only syntactic functions become graph nodes: a value binding
   ([let no_lanes = [| 0.0 |]], [let drop_counters = [| ... |]])
   runs its body once at module initialization (or at its enclosing
   let), so referencing it from a hot body costs nothing per call — its
   facts would be false positives. Eta-reduced functions
   ([let f = g x]) are values syntactically and fall outside the graph:
   the conservative under-approximation again. *)
let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> is_function e
  | _ -> false

(* Register every named function binding — top-level, module-nested
   (dotted name) and expression-nested (bare name) — as a graph node.
   Nested bodies also contribute facts to their enclosing binding
   (calling the encloser allocates/runs them); duplicate findings are
   deduplicated by location at the engine level. *)
let collect_bindings aliases structure =
  let bindings = ref [] in
  let add_binding ~prefix (vb : value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = name; _ }
      when is_function vb.pvb_expr
           || Ast_check.has_hot_attr vb.pvb_attributes ->
        let loc = vb.pvb_pat.ppat_loc in
        bindings :=
          {
            b_name = String.concat "." (prefix @ [ name ]);
            b_line = loc.loc_start.pos_lnum;
            b_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
            b_hot = Ast_check.has_hot_attr vb.pvb_attributes;
            b_facts = Ast_check.binding_facts vb.pvb_expr;
            b_calls = collect_calls aliases vb.pvb_expr;
          }
          :: !bindings
    | _ -> ()
  in
  (* Expression-nested named bindings (e.g. the [@hot] delivery
     continuation inside a lane body) register under their bare name. *)
  let nested_pass prefix e =
    let super = Ast_iterator.default_iterator in
    let expr it e =
      (match e.pexp_desc with
      | Pexp_let (_, vbs, _) -> List.iter (add_binding ~prefix) vbs
      | _ -> ());
      super.expr it e
    in
    let it = { super with expr } in
    it.expr it e
  in
  let rec structure_items prefix items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                add_binding ~prefix vb;
                nested_pass prefix vb.pvb_expr)
              vbs
        | Pstr_module
            {
              pmb_name = { txt = Some name; _ };
              pmb_expr = { pmod_desc = Pmod_structure items; _ };
              _;
            } ->
            structure_items (prefix @ [ name ]) items
        | _ -> ())
      items
  in
  structure_items [] structure;
  List.rev !bindings

let extract structure =
  (collect_opens structure, collect_bindings (aliases structure) structure)

(* ------------------------------------------------------------------ *)
(* Library map: wrapped library module name -> source directory         *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Pull [(name foo)] out of a dune file without a sexp parser: find the
   token "(name", take the atom up to the closing paren. *)
let library_name_of_dune source =
  match
    let n = String.length source in
    let tok = "(name" in
    let rec find i =
      if i + String.length tok > n then None
      else if String.equal (String.sub source i (String.length tok)) tok then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> None
  | Some i -> begin
      let j = ref (i + 5) in
      while !j < String.length source && (source.[!j] = ' ' || source.[!j] = '\n') do
        incr j
      done;
      let k = ref !j in
      while
        !k < String.length source
        && source.[!k] <> ')'
        && source.[!k] <> ' '
        && source.[!k] <> '\n'
      do
        incr k
      done;
      if !k > !j then Some (String.sub source !j (!k - !j)) else None
    end

let library_map ~roots =
  List.concat_map
    (fun root ->
      if not (Sys.file_exists root && Sys.is_directory root) then []
      else
        Sys.readdir root |> Array.to_list |> List.sort String.compare
        |> List.filter_map (fun entry ->
               let dir = Filename.concat root entry in
               let dune = Filename.concat dir "dune" in
               if Sys.is_directory dir && Sys.file_exists dune then
                 match library_name_of_dune (read_file dune) with
                 | Some name -> Some (String.capitalize_ascii name, dir)
                 | None -> None
               else None))
    roots

(* ------------------------------------------------------------------ *)
(* The graph                                                            *)

type t = {
  by_path : (string, summary) Hashtbl.t;
  by_key : (string, string * binding) Hashtbl.t;  (* "path#name" -> (path, b) *)
  lib_map : (string * string) list;
}

let key ~path ~name = path ^ "#" ^ name

let build ~lib_map summaries =
  let by_path = Hashtbl.create 128 in
  let by_key = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace by_path s.s_path s;
      List.iter
        (fun b ->
          let k = key ~path:s.s_path ~name:b.b_name in
          (* First binding wins on duplicate names (shadowing later
             definitions is the conservative choice for chains). *)
          if not (Hashtbl.mem by_key k) then Hashtbl.add by_key k (s.s_path, b))
        s.s_bindings)
    summaries;
  { by_path; by_key; lib_map }

let find t k = Hashtbl.find_opt t.by_key k

let display_name ~path ~name =
  let base = Filename.remove_extension (Filename.basename path) in
  String.capitalize_ascii base ^ "." ^ name

(* Resolve one referenced identifier from [from_path] to a node key. *)
let resolve t ~from_path target =
  let segments = String.split_on_char '.' target in
  let in_file path name =
    let k = key ~path ~name in
    if Hashtbl.mem t.by_key k then Some k else None
  in
  let try_library segs =
    match segs with
    | lib :: md :: (_ :: _ as rest) -> begin
        match List.assoc_opt lib t.lib_map with
        | Some dir ->
            in_file
              (Filename.concat dir (String.uncapitalize_ascii md ^ ".ml"))
              (String.concat "." rest)
        | None -> None
      end
    | _ -> None
  in
  let try_sibling segs =
    match segs with
    | md :: (_ :: _ as rest)
      when String.length md > 0
           && Char.uppercase_ascii md.[0] = md.[0]
           && not (String.equal md "") ->
        let sibling =
          Filename.concat (Filename.dirname from_path)
            (String.uncapitalize_ascii md ^ ".ml")
        in
        if String.equal sibling from_path then None
        else in_file sibling (String.concat "." rest)
    | _ -> None
  in
  let ( <|> ) a b = match a with Some _ -> a | None -> b () in
  in_file from_path target
  <|> fun () ->
  try_library segments
  <|> fun () ->
  try_sibling segments
  <|> fun () ->
  let opens =
    match Hashtbl.find_opt t.by_path from_path with
    | Some s -> s.s_opens
    | None -> []
  in
  List.find_map
    (fun o -> try_library (String.split_on_char '.' (o ^ "." ^ target)))
    opens
