type node = { id : int; asn : int; name : string; private_asn : bool }

(* Adjacency stores, for node [a], the neighbor id with the neighbor's
   role *relative to a* plus the link. *)
type t = {
  nodes : (int, node) Hashtbl.t;
  mutable node_order : int list;  (* reversed insertion order *)
  adjacency : (int, (int * Relationship.t * Link.t) list ref) Hashtbl.t;
}

let create () =
  { nodes = Hashtbl.create 64; node_order = []; adjacency = Hashtbl.create 64 }

let add_node t ~id ~asn ?(private_asn = false) name =
  if Hashtbl.mem t.nodes id then
    invalid_arg (Printf.sprintf "Topology.add_node: duplicate node id %d" id);
  Hashtbl.replace t.nodes id { id; asn; name; private_asn };
  t.node_order <- id :: t.node_order;
  Hashtbl.replace t.adjacency id (ref [])

let adjacency_exn t id =
  match Hashtbl.find_opt t.adjacency id with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Topology: unknown node id %d" id)

let already_adjacent t a b =
  List.exists (fun (n, _, _) -> n = b) !(adjacency_exn t a)

let add_edge t a b rel_of_b link =
  if a = b then invalid_arg "Topology: self loop";
  if already_adjacent t a b then
    invalid_arg (Printf.sprintf "Topology: duplicate edge %d-%d" a b);
  let adj_a = adjacency_exn t a and adj_b = adjacency_exn t b in
  adj_a := !adj_a @ [ (b, rel_of_b, link) ];
  adj_b := !adj_b @ [ (a, Relationship.inverse rel_of_b, link) ]

let connect t ~provider ~customer ?(link = Link.default) () =
  (* From the provider's viewpoint the neighbor is a Customer. *)
  add_edge t provider customer Relationship.Customer link

let connect_peers t a b ?(link = Link.default) () =
  add_edge t a b Relationship.Peer link

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> raise Not_found

let nodes t = List.rev_map (fun id -> node t id) t.node_order

let asn t id = (node t id).asn


let relationship t a b =
  match Hashtbl.find_opt t.adjacency a with
  | None -> None
  | Some adj ->
      List.find_map (fun (n, rel, _) -> if n = b then Some rel else None) !adj

let link t a b =
  match Hashtbl.find_opt t.adjacency a with
  | None -> None
  | Some adj ->
      List.find_map (fun (n, _, l) -> if n = b then Some l else None) !adj

let neighbors t id = !(adjacency_exn t id)

let filter_neighbors t id rel =
  List.filter_map
    (fun (n, r, _) -> if Relationship.equal r rel then Some n else None)
    (neighbors t id)

let customers t id = filter_neighbors t id Relationship.Customer

let providers t id = filter_neighbors t id Relationship.Provider

let is_valley_free t path =
  (* Classify each step of the traffic path: Up (customer→provider),
     Down (provider→customer) or Flat (peer). Valid = Up* Flat? Down*. *)
  let rec steps = function
    | a :: (b :: _ as rest) -> (
        match relationship t a b with
        | None -> None
        | Some rel -> (
            match steps rest with
            | None -> None
            | Some tail -> Some (rel :: tail)))
    | [ _ ] | [] -> Some []
  in
  match steps path with
  | None -> false
  | Some moves ->
      (* [rel] is the next hop's role relative to the current node:
         Provider = going up, Customer = going down, Peer = flat. *)
      let rec check ~descending ~peered = function
        | [] -> true
        | Relationship.Provider :: rest ->
            if descending || peered then false
            else check ~descending ~peered rest
        | Relationship.Peer :: rest ->
            if descending || peered then false
            else check ~descending ~peered:true rest
        | Relationship.Customer :: rest -> check ~descending:true ~peered rest
      in
      check ~descending:false ~peered:false moves
