module Network = Tango_bgp.Network
module Community = Tango_bgp.Community
module As_path = Tango_bgp.As_path
module Topology = Tango_topo.Topology

type mechanism = [ `Communities | `Poisoning ]

type path = {
  index : int;
  communities : Community.Set.t;
  poisons : int list;
  as_path : As_path.t;
  transits : int list;
  label : string;
  floor_owd_ms : float;
}

type result = {
  paths : path list;
  iterations : int;
  convergence_time_s : float;
  messages : int;
}

(* The ASNs of the providers fronting a server: stripped from observed
   paths to leave the transit sequence. *)
let provider_asns net node =
  let topo = Network.topology net in
  List.map (fun p -> Topology.asn topo p) (Topology.providers topo node)

let static_floor_ms net ~observer ~probe_prefix =
  let topo = Network.topology net in
  let addr = Tango_net.Prefix.nth_address probe_prefix 1L in
  match Network.forwarding_path net ~from_node:observer addr with
  | None -> infinity
  | Some nodes ->
      let rec sum = function
        | a :: (b :: _ as rest) -> (
            match Topology.link topo a b with
            | Some l -> l.Tango_topo.Link.delay_ms +. sum rest
            | None -> infinity)
        | [ _ ] | [] -> 0.0
      in
      sum nodes

let dedup_consecutive l =
  let rec go = function
    | a :: (b :: _ as rest) -> if a = b then go rest else a :: go rest
    | ([ _ ] | []) as tail -> tail
  in
  go l

(* ------------------------------------------------------------------ *)
(* Per-iteration steps. [run] drives them synchronously (with a real
   converge between announce and observe); the control-plane
   reconciler drives the same steps asynchronously from engine events,
   with a scheduled settle delay instead of a recursive converge. *)

let communities_of suppressed =
  Community.Set.of_list
    (List.map
       (fun asn -> Community.action_to_community (Community.No_export_to asn))
       suppressed)

(* Under poisoning, the poisoned ASNs ride in the announced path
   itself; scrub them before reading the transit sequence or picking
   the next target. *)
let effective_of ~mechanism ~suppressed as_path =
  match mechanism with
  | `Communities -> as_path
  | `Poisoning ->
      As_path.of_list
        (List.filter
           (fun asn -> not (List.mem asn suppressed))
           (As_path.to_list as_path))

let announce_step ~net ~origin ~probe_prefix ~mechanism ~suppressed () =
  let communities =
    match mechanism with
    | `Communities -> communities_of suppressed
    | `Poisoning -> Community.Set.empty
  in
  let poison =
    match mechanism with `Communities -> [] | `Poisoning -> suppressed
  in
  Network.announce net ~node:origin probe_prefix ~communities ~poison ()

let observe_step ~net ~origin ~observer ~probe_prefix
    ?(mechanism = `Communities) ~suppressed ~index () =
  match Network.as_path net ~node:observer probe_prefix with
  | None -> None
  | Some as_path ->
      let strip = provider_asns net origin @ provider_asns net observer in
      let effective_path = effective_of ~mechanism ~suppressed as_path in
      let transits =
        As_path.to_list effective_path
        |> List.filter (fun asn -> not (List.mem asn strip))
        |> dedup_consecutive
      in
      let label =
        match List.rev transits with
        | [] -> "direct"
        | distinguishing :: _ -> Tango_topo.Vultr.transit_name distinguishing
      in
      Some
        {
          index;
          communities =
            (match mechanism with
            | `Communities -> communities_of suppressed
            | `Poisoning -> Community.Set.empty);
          poisons =
            (match mechanism with `Communities -> [] | `Poisoning -> suppressed);
          as_path;
          transits;
          label;
          floor_owd_ms = static_floor_ms net ~observer ~probe_prefix;
        }

(* The next knob: suppress (or poison) the transit adjacent to the
   origin on the path just observed. When the origin's private ASN was
   stripped and only one provider hop remains, the provider itself is
   the knob — suppressing it is the "selective announcement" a
   multi-homed Tango site performs on its own exports. Returns the
   grown suppression set, or [None] when exploration is exhausted. *)
let next_suppression ~mechanism ~suppressed (p : path) =
  let effective = effective_of ~mechanism ~suppressed p.as_path in
  let next_target =
    match As_path.neighbor_of_origin effective with
    | Some n -> Some n
    | None -> As_path.origin_as effective
  in
  match next_target with
  | None -> None
  | Some next ->
      if List.mem next suppressed then None else Some (suppressed @ [ next ])

(* Replay [next_suppression] over an already-trusted path prefix: the
   suppression set discovery would hold after finding exactly these
   paths, in this order. *)
let suppression_of ~mechanism paths =
  List.fold_left
    (fun suppressed p ->
      match next_suppression ~mechanism ~suppressed p with
      | Some s -> s
      | None -> suppressed)
    [] paths

let run ~net ~origin ~observer ~probe_prefix ?(mechanism = `Communities)
    ?(max_paths = 16) () =
  let messages_before = Network.messages_delivered net in
  let time_spent = ref 0.0 in
  let iterations = ref 0 in
  let rec explore suppressed acc index =
    if index >= max_paths then List.rev acc
    else begin
      announce_step ~net ~origin ~probe_prefix ~mechanism ~suppressed ();
      time_spent := !time_spent +. Network.converge net;
      incr iterations;
      match
        observe_step ~net ~origin ~observer ~probe_prefix ~mechanism
          ~suppressed ~index ()
      with
      | None -> List.rev acc
      | Some p
        when List.exists (fun q -> As_path.equal q.as_path p.as_path) acc ->
          (* Suppression had no effect (e.g. the provider does not honor
             the community): the path is not new, stop. *)
          List.rev acc
      | Some p -> (
          match next_suppression ~mechanism ~suppressed p with
          | None -> List.rev (p :: acc)
          | Some grown -> explore grown (p :: acc) (index + 1))
    end
  in
  let paths = explore [] [] 0 in
  Network.withdraw net ~node:origin probe_prefix;
  time_spent := !time_spent +. Network.converge net;
  {
    paths;
    iterations = !iterations;
    convergence_time_s = !time_spent;
    messages = Network.messages_delivered net - messages_before;
  }
