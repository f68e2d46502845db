(* Rule dead-export (DESIGN.md §12): a [val] in a library interface
   that no program outside its own module references. Programs are the
   library's implementations and the executables beside it; tests are
   not, so a val only a test needs survives only behind a test-hook
   marker, [(* test-hook: test/test_x.ml *)] on the line above it, and
   the named test must reference it.

   Resolution is by name, like Callgraph's, but over whole files:
   module-initialization code ([let () = ...] bodies, experiment
   tables) reads values too, so every [Pexp_ident] of a reader counts,
   not only those inside function bindings. A reference is

   - a path ending in [M.f], as written or after expanding
     [module X = ...M] aliases (a val [f] of nested signature [Sub] in
     [m.mli] is [M.Sub.f]);
   - a bare or partial path [p] in a file that opens [M] anywhere
     ([open], [let open], [M.( ... )]): it also stands for [M.p];
   - a module [M] passed as a functor argument, included or packed as a
     first-class module: every value under [M] counts as referenced.

   Name-based matching over-approximates use (two [Err] modules share
   their references), so the rule can miss a dead export but does not
   flag a live one that is referenced by its path. *)

open Parsetree

type refs = { values : string list; modules : string list }

(* Every suffix of the dotted [path] with at least [min] segments. *)
let suffixes ~min path =
  let rec go acc n = function
    | [] -> acc
    | _ when n < min -> acc
    | _ :: rest as s -> go (String.concat "." s :: acc) (n - 1) rest
  in
  let segments = String.split_on_char '.' path in
  go [] (List.length segments) segments

let references structure =
  let expand = Callgraph.expand_alias (Callgraph.aliases structure) in
  (* Aliases are collected over the whole file, whatever their scope, so
     a path counts both as written and expanded: [module R = Old_r]
     inside one submodule must not hide a top-level [R.f]. *)
  let paths lid =
    let path = Callgraph.flatten_longident lid in
    let expanded = expand path in
    if String.equal expanded path then [ path ] else [ path; expanded ]
  in
  let idents = ref [] and opens = ref [] and modules = ref [] in
  let add_to acc me =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> acc := paths txt @ !acc
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let module_expr it me =
    (match me.pmod_desc with Pmod_apply (_, arg) -> add_to modules arg | _ -> ());
    super.module_expr it me
  in
  let open_declaration it od =
    add_to opens od.popen_expr;
    super.open_declaration it od
  in
  let structure_item it item =
    (match item.pstr_desc with
    | Pstr_include { pincl_mod; _ } -> add_to modules pincl_mod
    | _ -> ());
    super.structure_item it item
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> idents := paths txt @ !idents
    | Pexp_pack me -> add_to modules me
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr; module_expr; open_declaration; structure_item } in
  it.structure it structure;
  let opens = List.sort_uniq String.compare !opens in
  let values = List.concat_map (fun id -> id :: List.map (fun o -> o ^ "." ^ id) opens) !idents in
  { values; modules = !modules }

(* ------------------------------------------------------------------ *)
(* The index: qualified name -> the reader files that reference it      *)

type index = {
  values_by_key : (string, string list) Hashtbl.t;
  modules_by_key : (string, string list) Hashtbl.t;
}

let index readers =
  let values_by_key = Hashtbl.create 4096 and modules_by_key = Hashtbl.create 64 in
  let add tbl ~min file paths =
    let seen = Hashtbl.create 256 in
    List.iter
      (fun path ->
        List.iter
          (fun key ->
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              let files = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
              Hashtbl.replace tbl key (file :: files)
            end)
          (suffixes ~min path))
      paths
  in
  List.iter
    (fun (file, r) ->
      (* A value reference is qualified; a module reference may be bare. *)
      add values_by_key ~min:2 file r.values;
      add modules_by_key ~min:1 file r.modules)
    readers;
  { values_by_key; modules_by_key }

(* ------------------------------------------------------------------ *)
(* Exports                                                              *)

(* [(dotted name, location)] of every val of a signature: top level and
   nested module signatures, not module types or functor bodies (those
   values are reached through the applying module's name). *)
let rec vals prefix items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd -> [ (prefix @ [ vd.pval_name.txt ], vd.pval_name.loc) ]
      | Psig_module
          { pmd_name = { txt = Some name; _ }; pmd_type = { pmty_desc = Pmty_signature items; _ }; _ }
        ->
          vals (prefix @ [ name ]) items
      | _ -> [])
    items

let module_name path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The modules a val at [M; Sub; f] lives under: [M] and [M.Sub]. *)
let rec enclosing_modules acc = function
  | [] | [ _ ] -> acc
  | m :: rest ->
      let acc = match acc with [] -> [ m ] | p :: _ -> (p ^ "." ^ m) :: acc in
      enclosing_modules acc rest

(* Whether a reader in [index] other than [own] references the val at
   [segments], by its path or through an enclosing module used whole. *)
let reads ?(own = "") index segments =
  let read tbl key =
    match Hashtbl.find_opt tbl key with
    | Some files -> List.exists (fun f -> not (String.equal f own)) files
    | None -> false
  in
  read index.values_by_key (String.concat "." segments)
  || List.exists (read index.modules_by_key) (enclosing_modules [] segments)

(* Built by concatenation so that this file holds no marker. *)
let hook_marker = "(* " ^ "test-hook:"

(* [(line, named test file)] of every line of [source] that opens with
   a test-hook marker. *)
let hooks source =
  List.concat
    (List.mapi
       (fun i line ->
         let line = String.trim line in
         if not (String.starts_with ~prefix:hook_marker line) then []
         else
           let n = String.length hook_marker in
           let rest = String.trim (String.sub line n (String.length line - n)) in
           [ (i + 1, List.hd (String.split_on_char ' ' rest)) ])
       (String.split_on_char '\n' source))

let check index ~test_reader ~mli ~source signature =
  let own = Filename.remove_extension mli ^ ".ml" in
  let finding line message =
    Rules.v ~file:mli ~line ~col:0 Rules.Dead_export message
  in
  let hooks = hooks source in
  let vals = vals [] signature in
  let val_lines = List.map (fun (_, (loc : Location.t)) -> loc.loc_start.pos_lnum) vals in
  let orphans =
    List.filter_map
      (fun (line, _) ->
        if List.mem (line + 1) val_lines then None
        else Some (finding line "test-hook marker is not on the line above a val"))
      hooks
  in
  orphans
  @ List.filter_map
      (fun (segments, (loc : Location.t)) ->
        let segments = module_name mli :: segments in
        let key = String.concat "." segments in
        let line = loc.loc_start.pos_lnum in
        let read_by_program = reads ~own index segments in
        match List.assoc_opt (line - 1) hooks with
        | None when read_by_program -> None
        | None ->
            Some
              (Ast_check.loc_finding ~file:mli ~loc Rules.Dead_export
                 (Printf.sprintf
                    "%s is exported but no program outside its module references it" key))
        | Some test when read_by_program ->
            Some
              (finding (line - 1)
                 (Printf.sprintf "stale test-hook for %s (%s): a program references it" key
                    test))
        | Some test -> (
            match test_reader test with
            | Some test_index when reads test_index segments -> None
            | Some _ ->
                Some
                  (finding (line - 1)
                     (Printf.sprintf "test-hook for %s names %s, which does not reference it"
                        key test))
            | None ->
                Some
                  (finding (line - 1)
                     (Printf.sprintf "test-hook for %s names %s, which is not a test file" key
                        test))))
      vals
