(* Interprocedural hot-path closure (rule Hot_reach; DESIGN.md §12).

   Roots are the [@hot]-annotated bindings of the configured hot
   modules — the same set the intraprocedural pass checks. From each
   root we chase resolved calls breadth-first; BFS parent pointers give
   the shortest call chain from a root to every reached binding, which
   is what the report prints:

     Fabric.memo_hop -> Fabric.hop_of_table -> Network.route_for_addr
       -> Speaker.lookup -> Speaker.rebuild_fib -> <alloc here>

   A reached binding's allocation/blocking facts become Hot_reach
   findings at the callee's location (where the fix goes), each carrying
   the full chain. Bindings that the intraprocedural pass already
   checked — [@hot] bindings inside designated hot modules, roots
   included — are traversed but not re-reported, so every site surfaces
   under exactly one rule and existing waivers keep working. *)

type node = {
  n_path : string;
  n_binding : Callgraph.binding;
  n_chain : string list;  (* display names, root first, this node last *)
}

let findings ~(config : Ast_check.config) ~lib_map summaries =
  let graph = Callgraph.build ~lib_map summaries in
  let is_hot_module path = Ast_check.path_matches path config.hot_modules in
  let intraprocedurally_checked ~path (b : Callgraph.binding) =
    b.b_hot && is_hot_module path
  in
  let visited = Hashtbl.create 256 in
  let queue = Queue.create () in
  let enqueue ~path (b : Callgraph.binding) ~chain =
    let k = Callgraph.key ~path ~name:b.b_name in
    if not (Hashtbl.mem visited k) then begin
      Hashtbl.add visited k ();
      let display = Callgraph.display_name ~path ~name:b.b_name in
      Queue.add { n_path = path; n_binding = b; n_chain = chain @ [ display ] } queue
    end
  in
  (* Seed with the [@hot] roots, in summary order for determinism. *)
  List.iter
    (fun (s : Callgraph.summary) ->
      if is_hot_module s.s_path then
        List.iter
          (fun (b : Callgraph.binding) ->
            if b.b_hot then enqueue ~path:s.s_path b ~chain:[])
          s.s_bindings)
    summaries;
  let findings = ref [] in
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    (* Report facts of bindings the intraprocedural pass does not own. *)
    if not (intraprocedurally_checked ~path:n.n_path n.n_binding) then
      List.iter
        (fun (f : Ast_check.fact) ->
          let base = Ast_check.finding_of_fact ~file:n.n_path f in
          findings :=
            {
              base with
              Rules.rule = Rules.Hot_reach;
              message =
                Printf.sprintf "%s (reachable from a [@hot] body)" base.Rules.message;
              chain = n.n_chain;
            }
            :: !findings)
        n.n_binding.b_facts;
    (* Chase resolved calls. *)
    List.iter
      (fun (c : Callgraph.call) ->
        match Callgraph.resolve graph ~from_path:n.n_path c.c_target with
        | Some k -> begin
            match Callgraph.find graph k with
            | Some (path, b) -> enqueue ~path b ~chain:n.n_chain
            | None -> ()
          end
        | None -> ())
      n.n_binding.b_calls
  done;
  (* Deduplicate by location+rule: a nested binding's facts may appear
     both via its encloser's body walk and via its own node. Sorting
     also detaches the output from hash-table iteration order. *)
  List.sort_uniq
    (fun (a : Rules.finding) b ->
      match Rules.finding_compare a b with
      | 0 -> compare a.message b.message
      | c -> c)
    !findings
