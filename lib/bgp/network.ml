module Topology = Tango_topo.Topology
module Engine = Tango_sim.Engine
module Prefix = Tango_net.Prefix

type overrides = {
  allowas_in : bool option;
  interprets_actions : bool option;
  remove_private_on_export : bool option;
  neighbor_weight : (int -> int) option;
  neighbor_local_pref : (int -> int option) option;
}

let no_overrides =
  {
    allowas_in = None;
    interprets_actions = None;
    remove_private_on_export = None;
    neighbor_weight = None;
    neighbor_local_pref = None;
  }

type t = {
  topo : Topology.t;
  engine : Engine.t;
  speakers : (int, Speaker.t) Hashtbl.t;
  mrai_s : float;
  (* Per-session MRAI state: when a session last sent, what is queued
     (latest update per prefix wins), and whether a flush is armed. *)
  last_sent : (int * int, float) Hashtbl.t;
  pending : (int * int, (Prefix.t, Update.t) Hashtbl.t) Hashtbl.t;
  flush_armed : (int * int, unit) Hashtbl.t;
  mutable messages : int;
  (* Monotone table-state stamp: bumped on every origination, withdrawal
     and delivered update, i.e. whenever any loc-RIB may have changed.
     Derived read-side caches (the fabric's batched route cache) compare
     it to decide whether their resolved routes are still current;
     over-counting is harmless, missing a change is not. *)
  mutable revision : int;
  (* Table-observation hooks: fired synchronously whenever a node
     (re-)originates or withdraws a prefix — the event source behind
     event-driven reconciliation checks. Empty by default, so the
     origination path costs nothing extra. *)
  mutable origin_listeners : (node:int -> Prefix.t -> unit) list;
}

let asn_shared topo asn =
  let count = ref 0 in
  List.iter
    (fun (n : Topology.node) -> if n.asn = asn then incr count)
    (Topology.nodes topo);
  !count > 1

let has_private_customer topo node_id =
  List.exists
    (fun c -> (Topology.node topo c).Topology.private_asn)
    (Topology.customers topo node_id)

(* Per-update processing time at the receiving speaker, added to the
   link delay of every delivery. *)
let processing_delay_s = 0.05

let create ?(mrai_s = 0.0) ?(configure = fun _ -> no_overrides) topo engine =
  let t =
    {
      topo;
      engine;
      speakers = Hashtbl.create 64;
      mrai_s;
      last_sent = Hashtbl.create 64;
      pending = Hashtbl.create 64;
      flush_armed = Hashtbl.create 64;
      messages = 0;
      revision = 0;
      origin_listeners = [];
    }
  in
  List.iter
    (fun (node : Topology.node) ->
      let ov = configure node in
      let dfl v = function Some x -> x | None -> v in
      let provider_side = has_private_customer topo node.id in
      let speaker =
        Speaker.create ~node_id:node.id ~asn:node.asn
          ~allowas_in:(dfl (asn_shared topo node.asn) ov.allowas_in)
          ~remove_private_on_export:(dfl provider_side ov.remove_private_on_export)
          ~interprets_actions:(dfl provider_side ov.interprets_actions)
          ()
      in
      List.iter
        (fun (peer_id, rel, _link) ->
          let weight =
            match ov.neighbor_weight with Some f -> f peer_id | None -> 0
          in
          let import_local_pref =
            match ov.neighbor_local_pref with
            | Some f -> f peer_id
            | None -> None
          in
          Speaker.add_neighbor speaker ~node_id:peer_id
            ~asn:(Topology.asn topo peer_id) ~rel ~weight ?import_local_pref ())
        (Topology.neighbors topo node.id);
      Hashtbl.replace t.speakers node.id speaker)
    (Topology.nodes topo);
  t

let topology t = t.topo

let engine t = t.engine

(* [find], not [find_opt]: every simulated hop's route lookup comes
   through here, and the option would be its only allocation. *)
let speaker t node_id =
  match Hashtbl.find t.speakers node_id with
  | s -> s
  | exception Not_found ->
      (* tango-lint: allow hot-reach — raise path only: an unknown node id is a caller bug *)
      invalid_arg (Printf.sprintf "Network.speaker: unknown node %d" node_id)

let session_delay t a b =
  let link_delay =
    match Topology.link t.topo a b with
    | Some l -> l.Tango_topo.Link.delay_ms /. 1000.0
    | None -> 0.0
  in
  link_delay +. processing_delay_s

let prefix_of_update = function
  | Update.Announce r -> r.Route.prefix
  | Update.Withdraw p -> p

let rec dispatch t ~from_node (emissions : Update.emission list) =
  List.iter
    (fun { Update.to_node; update } -> submit t from_node to_node update)
    emissions

and submit t from_node to_node update =
  if t.mrai_s <= 0.0 then transmit t from_node to_node update
  else begin
    let key = (from_node, to_node) in
    let now = Engine.now t.engine in
    let last =
      Option.value ~default:neg_infinity (Hashtbl.find_opt t.last_sent key)
    in
    if now -. last >= t.mrai_s then begin
      Hashtbl.replace t.last_sent key now;
      transmit t from_node to_node update
    end
    else begin
      (* Coalesce: only the most recent update per prefix survives. *)
      let queue =
        match Hashtbl.find_opt t.pending key with
        | Some q -> q
        | None ->
            let q = Hashtbl.create 4 in
            Hashtbl.replace t.pending key q;
            q
      in
      Hashtbl.replace queue (prefix_of_update update) update;
      if not (Hashtbl.mem t.flush_armed key) then begin
        Hashtbl.replace t.flush_armed key ();
        Engine.schedule_at t.engine ~time:(last +. t.mrai_s) (fun _ ->
            Hashtbl.remove t.flush_armed key;
            Hashtbl.replace t.last_sent key (Engine.now t.engine);
            match Hashtbl.find_opt t.pending key with
            | Some q ->
                Hashtbl.remove t.pending key;
                (* Flush in prefix order: transmit schedules events, and
                   event identity must not inherit Hashtbl hash order. *)
                Hashtbl.fold (fun p u acc -> (p, u) :: acc) q []
                |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)
                |> List.iter (fun (_, u) -> transmit t from_node to_node u)
            | None -> ())
      end
    end
  end

and transmit t from_node to_node update =
  let delay = session_delay t from_node to_node in
  Engine.schedule t.engine ~delay (fun _engine ->
      t.messages <- t.messages + 1;
      t.revision <- t.revision + 1;
      let receiver = speaker t to_node in
      let next = Speaker.receive receiver ~from_node update in
      dispatch t ~from_node:to_node next)

let notify_origin t ~node prefix =
  List.iter (fun f -> f ~node prefix) t.origin_listeners

let add_origin_listener t f = t.origin_listeners <- t.origin_listeners @ [ f ]

let announce t ~node prefix ?communities ?poison () =
  let s = speaker t node in
  let emissions = Speaker.originate s prefix ?communities ?poison () in
  t.revision <- t.revision + 1;
  dispatch t ~from_node:node emissions;
  notify_origin t ~node prefix

let withdraw t ~node prefix =
  let s = speaker t node in
  t.revision <- t.revision + 1;
  dispatch t ~from_node:node (Speaker.withdraw_origin s prefix);
  notify_origin t ~node prefix

(* An hour of virtual time: far beyond any convergence the simulated
   worlds need. *)
let converge_timeout_s = 3600.0

let converge t =
  let start = Engine.now t.engine in
  Engine.run ~until:(start +. converge_timeout_s) t.engine;
  Engine.now t.engine -. start

let best_route t ~node prefix = Speaker.best (speaker t node) prefix

let as_path t ~node prefix =
  Option.map (fun (r : Route.t) -> r.Route.path) (best_route t ~node prefix)

let route_for_addr t ~node addr = Speaker.lookup (speaker t node) addr

let forwarding_path t ~from_node addr =
  let rec walk node acc hops =
    if hops > 64 then None
    else begin
      match route_for_addr t ~node addr with
      | None -> None
      | Some route ->
          if Route.local route then Some (List.rev (node :: acc))
          else begin
            match route.Route.learned_from with
            | None -> Some (List.rev (node :: acc))
            | Some next -> walk next (node :: acc) (hops + 1)
          end
    end
  in
  walk from_node [] 0

let messages_delivered t = t.messages

let revision t = t.revision

let residual_nodes t prefix =
  Hashtbl.fold
    (fun node_id speaker acc ->
      if Speaker.residual speaker prefix then node_id :: acc else acc)
    t.speakers []
  |> List.sort Int.compare
