module Relationship = Tango_topo.Relationship
module Prefix = Tango_net.Prefix

type neighbor = {
  node_id : int;
  asn : int;
  rel : Relationship.t;
  weight : int;
  import_local_pref : int option;
}

type origination = { communities : Community.Set.t; poison : int list }

type t = {
  node_id : int;
  asn : int;
  allowas_in : bool;
  remove_private_on_export : bool;
  interprets_actions : bool;
  mutable neighbor_list : neighbor list;
  adj_in : (Prefix.t * int, Route.t) Hashtbl.t;
  loc_rib : (Prefix.t, Route.t) Hashtbl.t;
  (* Forwarding table: the loc-RIB as parallel arrays, longest prefix
     first and equal lengths in Prefix.compare order, so the first
     prefix of a scan that holds an address is its longest match.
     [recompute], the one place the loc-RIB changes, marks it stale; the
     next lookup rebuilds it. Routes sit pre-wrapped in [Some] so a hit
     returns without allocating. *)
  mutable fib_stale : bool;
  mutable fib_prefixes : Prefix.t array;
  mutable fib_routes : Route.t option array;
  adj_out : (Prefix.t * int, Route.t) Hashtbl.t;
  originated : (Prefix.t, origination) Hashtbl.t;
}

let create ~node_id ~asn ?(allowas_in = false)
    ?(remove_private_on_export = false) ?(interprets_actions = false) () =
  {
    node_id;
    asn;
    allowas_in;
    remove_private_on_export;
    interprets_actions;
    neighbor_list = [];
    adj_in = Hashtbl.create 32;
    loc_rib = Hashtbl.create 32;
    fib_stale = false;
    fib_prefixes = [||];
    fib_routes = [||];
    adj_out = Hashtbl.create 32;
    originated = Hashtbl.create 8;
  }

let add_neighbor t ~node_id ~asn ~rel ?(weight = 0) ?import_local_pref () =
  if List.exists (fun (n : neighbor) -> n.node_id = node_id) t.neighbor_list then
    invalid_arg (Printf.sprintf "Speaker.add_neighbor: duplicate neighbor %d" node_id);
  t.neighbor_list <-
    t.neighbor_list @ [ { node_id; asn; rel; weight; import_local_pref } ]

let neighbor_exn t node_id =
  match List.find_opt (fun (n : neighbor) -> n.node_id = node_id) t.neighbor_list with
  | Some n -> n
  | None ->
      invalid_arg
        (Printf.sprintf "Speaker %d: unknown neighbor node %d" t.node_id node_id)

(* ------------------------------------------------------------------ *)
(* Import                                                              *)

let import t (neighbor : neighbor) (wire : Route.t) : Route.t option =
  if As_path.contains wire.Route.path t.asn && not t.allowas_in then None
  else begin
    let local_pref =
      match neighbor.import_local_pref with
      | Some lp -> lp
      | None -> Relationship.base_local_pref neighbor.rel
    in
    Some
      {
        wire with
        Route.next_hop = neighbor.node_id;
        learned_from = Some neighbor.node_id;
        local_pref;
        neighbor_weight = neighbor.weight;
      }
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)

let local_route t prefix (orig : origination) =
  let path =
    match orig.poison with
    | [] -> As_path.empty
    | poisons -> As_path.of_list (poisons @ [ t.asn ])
  in
  Route.make ~prefix ~path ~next_hop:t.node_id ~local_pref:1000
    ~communities:orig.communities ()

(* The relationship the route was learned over, treating local routes as
   customer routes (exportable to everyone). *)
let learned_rel t (r : Route.t) =
  match r.Route.learned_from with
  | None -> Relationship.Customer
  | Some from -> (neighbor_exn t from).rel

let action_filter t (r : Route.t) (to_neighbor : neighbor) =
  (* Provider action communities apply to routes this speaker learned
     from its customers (or originated on their behalf). Returns [None]
     to suppress the export, or the extra prepend count. *)
  let from_customer =
    match learned_rel t r with
    | Relationship.Customer -> true
    | Relationship.Peer | Relationship.Provider -> false
  in
  if not (t.interprets_actions && from_customer) then Some 0
  else begin
    let actions = Community.actions_of_set r.Route.communities in
    let transit_neighbor =
      match to_neighbor.rel with
      | Relationship.Provider | Relationship.Peer -> true
      | Relationship.Customer -> false
    in
    let suppressed =
      List.exists
        (function
          | Community.No_export_to asn -> asn = to_neighbor.asn
          | Community.No_export_transit -> transit_neighbor
          | Community.Export_only_to _ | Community.Prepend_to _ -> false)
        actions
    in
    let export_only =
      List.filter_map
        (function Community.Export_only_to asn -> Some asn | _ -> None)
        actions
    in
    let excluded_by_only =
      transit_neighbor && not (List.is_empty export_only)
      && not (List.mem to_neighbor.asn export_only)
    in
    if suppressed || excluded_by_only then None
    else begin
      let prepends =
        List.fold_left
          (fun acc -> function
            | Community.Prepend_to (asn, n) when asn = to_neighbor.asn ->
                acc + n
            | _ -> acc)
          0 actions
      in
      Some prepends
    end
  end

let export_route t (r : Route.t) (to_neighbor : neighbor) : Route.t option =
  let came_from_there =
    match r.Route.learned_from with
    | Some from -> from = to_neighbor.node_id
    | None -> false
  in
  if came_from_there then None
  else if Route.has_community r Community.no_export_well_known then None
  else if
    not
      (Relationship.export_allowed ~learned_from:(learned_rel t r)
         ~exporting_to:to_neighbor.rel)
  then None
  else begin
    match action_filter t r to_neighbor with
    | None -> None
    | Some extra_prepends ->
        let base_path =
          if t.remove_private_on_export then As_path.strip_private r.Route.path
          else r.Route.path
        in
        let path = As_path.prepend_n base_path t.asn (1 + extra_prepends) in
        Some
          (Route.make ~prefix:r.Route.prefix ~path ~next_hop:t.node_id
             ~origin:r.Route.origin ~communities:r.Route.communities ())
  end

(* ------------------------------------------------------------------ *)
(* Decision + diffing adj-RIB-out                                      *)

let candidates t prefix =
  let learned =
    List.filter_map
      (fun (n : neighbor) -> Hashtbl.find_opt t.adj_in (prefix, n.node_id))
      t.neighbor_list
  in
  let all =
    match Hashtbl.find_opt t.originated prefix with
    | Some orig -> local_route t prefix orig :: learned
    | None -> learned
  in
  Decision.rank all

let recompute t prefix : Update.emission list =
  let best = Decision.best (candidates t prefix) in
  let previous = Hashtbl.find_opt t.loc_rib prefix in
  let same =
    match (previous, best) with
    | None, None -> true
    | Some a, Some b -> a = b
    | None, Some _ | Some _, None -> false
  in
  if same then []
  else begin
    (match best with
    | Some r -> Hashtbl.replace t.loc_rib prefix r
    | None -> Hashtbl.remove t.loc_rib prefix);
    t.fib_stale <- true;
    List.filter_map
      (fun neighbor ->
        let target = Option.map (fun r -> export_route t r neighbor) best in
        let target = Option.join target in
        let previous_out = Hashtbl.find_opt t.adj_out (prefix, neighbor.node_id) in
        match (previous_out, target) with
        | None, None -> None
        | Some old, Some next when old = next -> None
        | _, Some next ->
            Hashtbl.replace t.adj_out (prefix, neighbor.node_id) next;
            Some { Update.to_node = neighbor.node_id; update = Update.Announce next }
        | Some _, None ->
            Hashtbl.remove t.adj_out (prefix, neighbor.node_id);
            Some { Update.to_node = neighbor.node_id; update = Update.Withdraw prefix })
      t.neighbor_list
  end

(* ------------------------------------------------------------------ *)
(* Public mutations                                                    *)

let originate t prefix ?(communities = Community.Set.empty) ?(poison = []) () =
  Hashtbl.replace t.originated prefix { communities; poison };
  recompute t prefix

let withdraw_origin t prefix =
  Hashtbl.remove t.originated prefix;
  recompute t prefix

let receive t ~from_node update =
  let neighbor = neighbor_exn t from_node in
  match update with
  | Update.Announce wire ->
      let prefix = wire.Route.prefix in
      (match import t neighbor wire with
      | Some route -> Hashtbl.replace t.adj_in (prefix, from_node) route
      | None ->
          (* Rejected by policy: behaves like a withdraw of whatever this
             neighbor previously advertised. *)
          Hashtbl.remove t.adj_in (prefix, from_node));
      recompute t prefix
  | Update.Withdraw prefix ->
      Hashtbl.remove t.adj_in (prefix, from_node);
      recompute t prefix

let best t prefix = Hashtbl.find_opt t.loc_rib prefix

(* Sorted so observers never depend on Hashtbl iteration order. *)
let loc_rib t =
  Hashtbl.fold (fun p r acc -> (p, r) :: acc) t.loc_rib []
  |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)

(* ------------------------------------------------------------------ *)
(* Forwarding table                                                    *)

let fib_order (a, _) (b, _) =
  let c = Int.compare (Prefix.length b) (Prefix.length a) in
  if c <> 0 then c else Prefix.compare a b

let fib_route (_, r) = Some r

let rebuild_fib t =
  (* tango-lint: allow hot-reach — the rebuild runs once per loc-RIB change, never per packet *)
  let rib = Hashtbl.fold (fun p r acc -> (p, r) :: acc) t.loc_rib [] |> List.sort fib_order in
  let entries = Array.of_list rib in
  t.fib_prefixes <- Array.map fst entries;
  t.fib_routes <- Array.map fib_route entries;
  t.fib_stale <- false

let rec scan_fib prefixes routes addr i =
  if i >= Array.length prefixes then None
  else if Prefix.mem (Array.unsafe_get prefixes i) addr then
    Array.unsafe_get routes i
  else scan_fib prefixes routes addr (i + 1)

let lookup t addr =
  if t.fib_stale then rebuild_fib t;
  scan_fib t.fib_prefixes t.fib_routes addr 0

(* Observation hook for control-plane reconciliation and leak tests:
   does any of the four per-speaker tables still reference [prefix]? *)
let residual t prefix =
  Hashtbl.mem t.loc_rib prefix
  || Hashtbl.mem t.originated prefix
  || List.exists
       (fun (n : neighbor) ->
         Hashtbl.mem t.adj_in (prefix, n.node_id)
         || Hashtbl.mem t.adj_out (prefix, n.node_id))
       t.neighbor_list
