module Network = Tango_bgp.Network
module Route = Tango_bgp.Route
module Topology = Tango_topo.Topology
module Link = Tango_topo.Link
module Engine = Tango_sim.Engine
module Rng = Tango_sim.Rng
module Packet = Tango_net.Packet
module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace

(* Process-wide observability (aggregated across fabrics; see DESIGN.md
   §8). Drop counters are indexed by the same codes [send] passes to
   the trace records. *)
let m_sent = Metric.counter ~help:"Packets entering the fabric" "fabric_packets_sent_total"

let m_delivered =
  Metric.counter ~help:"Packets delivered to an edge node" "fabric_packets_delivered_total"

let m_forwarded =
  Metric.counter ~help:"Per-hop forwards scheduled" "fabric_packets_forwarded_total"

let m_dropped =
  Metric.counter ~help:"Packets dropped, any reason" "fabric_packets_dropped_total"

let drop_ttl = 0

let drop_unroutable = 1

let drop_link_failure = 2

let drop_fault = 3

let drop_counters =
  [|
    Metric.counter ~help:"Drops: hop limit exceeded" "fabric_drops_ttl_total";
    Metric.counter ~help:"Drops: no route" "fabric_drops_unroutable_total";
    Metric.counter ~help:"Drops: failed link" "fabric_drops_link_failure_total";
    Metric.counter ~help:"Drops: injected fault loss (lib/faults brownout)"
      "fabric_drops_fault_total";
  |]

let k_drop = Trace.kind "fabric.drop"

let k_deliver = Trace.kind "fabric.deliver"

(* Resolved end-to-end route, the unit of the direct batched path: the
   full node walk for one (from, dst) pair with its delay terms
   pre-summed. [plain] marks routes with no stochastic terms anywhere
   (zero jitter on every link) — only those can skip the
   hop-by-hop machinery, because their delivery time is a closed-form
   function of the send time and the packet size. *)
type route_entry = {
  mutable e_from : int;
  mutable e_dst : Tango_net.Addr.t;
  mutable e_dest : int;  (* delivering node; -1 when unresolvable *)
  mutable e_links : int array;  (* packed directed-link keys, send order *)
  mutable e_delay_s : float;  (* sum of link propagation delays *)
  mutable e_per_byte_s : float;  (* sum of per-byte transmission delays *)
  mutable e_plain : bool;
}

type t = {
  net : Network.t;
  rng : Rng.t;
  lanes_of : int -> Ecmp.lanes;
  extra_delay_ms : from_node:int -> to_node:int -> time_s:float -> float;
  (* Whether the caller supplied lanes_of/extra_delay_ms hooks: hooked
     fabrics never take the direct path (the hooks are per-hop and
     per-packet by contract). *)
  custom_hooks : bool;
  (* Batched-route cache, validated against Network.revision: filled
     lazily per (from, dst), flushed whenever any BGP table may have
     changed. A handful of slots suffices — a lane talks to a handful of
     tunnel endpoints. *)
  route_cache : route_entry option array;
  mutable route_rev : int;
  mutable route_clock : int;
  (* Counters for the synchronous direct path, which must not touch the
     process-wide Metric registry (lanes run on their own domains):
     published into the registry at quiesce points. *)
  mutable direct_sent : int;
  mutable direct_delivered : int;
  mutable published_sent : int;
  mutable published_delivered : int;
  mutable direct_fallbacks : int;
  (* Per-directed-link state lives in flat arrays of [n * n] entries
     indexed by the packed key [pos.(from) * n + pos.(to)], where [pos]
     maps a node id to its position in the topology's node list — O(1)
     with no tuple allocation or polymorphic hashing on the per-packet
     path. Node ids are ASNs, so the tables are sized by the node count,
     never by the largest id. The node set and the links are snapshotted
     at [create], so a hop reads its link with one array load instead of
     searching the topology's adjacency lists. *)
  n : int;
  pos : int array;  (* node id -> position; -1 for ids that are not nodes *)
  links : Link.t option array;  (* directed link by packed key *)
  failed_links : Bytes.t;
  (* Fault-injection hooks (lib/faults): per-directed-link extra drop
     probability and extra one-way delay, both dynamic. All per-packet
     checks are gated behind [fault_count > 0], so the fault-free path
     pays exactly one load and one branch. *)
  mutable fault_count : int;
  fault_set : Bytes.t;
  fault_loss : float array;
  fault_extra : (time_s:float -> float) array;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let no_lanes = [| 0.0 |]

let no_fault_extra_ms ~time_s:_ = 0.0

let route_cache_slots = 16

let create ?(seed = 4242) ?lanes_of ?extra_delay_ms net =
  let custom_hooks = Option.is_some lanes_of || Option.is_some extra_delay_ms in
  let lanes_of =
    match lanes_of with Some f -> f | None -> fun _ -> no_lanes
  in
  let extra_delay_ms =
    match extra_delay_ms with
    | Some f -> f
    | None -> fun ~from_node:_ ~to_node:_ ~time_s:_ -> 0.0
  in
  let nodes = Topology.nodes (Network.topology net) in
  let n = List.length nodes in
  let max_id =
    List.fold_left (fun m (v : Topology.node) -> max m v.Topology.id) (-1) nodes
  in
  let pos = Array.make (max_id + 1) (-1) in
  List.iteri (fun i (v : Topology.node) -> pos.(v.Topology.id) <- i) nodes;
  let topo = Network.topology net in
  let links = Array.make (n * n) None in
  List.iteri
    (fun i (a : Topology.node) ->
      List.iteri
        (fun j (b : Topology.node) ->
          links.((i * n) + j) <- Topology.link topo a.Topology.id b.Topology.id)
        nodes)
    nodes;
  {
    net;
    rng = Rng.create ~seed;
    lanes_of;
    extra_delay_ms;
    custom_hooks;
    route_cache = Array.make route_cache_slots None;
    route_rev = -1;
    route_clock = 0;
    direct_sent = 0;
    direct_delivered = 0;
    published_sent = 0;
    published_delivered = 0;
    direct_fallbacks = 0;
    n;
    pos;
    links;
    failed_links = Bytes.make (n * n) '\000';
    fault_count = 0;
    fault_set = Bytes.make (n * n) '\000';
    fault_loss = Array.make (n * n) 0.0;
    fault_extra = Array.make (n * n) no_fault_extra_ms;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

(* Packed key of the directed link between two nodes of the topology:
   two array loads and no validation — the forwarding loop only ever
   names nodes the topology gave it. *)
let[@hot] hop_key t node next = (t.pos.(node) * t.n) + t.pos.(next)

let position t id =
  if id < 0 || id >= Array.length t.pos then -1 else t.pos.(id)

(* The validating form, for ids that come from callers. *)
let[@hot] link_key t ~from_node ~to_node =
  if position t from_node < 0 || position t to_node < 0 then
    Err.invalid "Fabric: link %d -> %d outside the topology" from_node
         to_node;
  hop_key t from_node to_node

let network t = t.net

let link t ~from_node ~to_node = t.links.(link_key t ~from_node ~to_node)

let hop_limit = 64

let drop_ignored ~reason:_ _ = ()

(* The forwarding loop is toplevel functions over the fabric, the packet
   and its two callbacks, so a send allocates no closures of its own;
   the one allocation per hop is the engine continuation. *)
let[@hot] drop t packet ~on_dropped reason code =
  t.dropped <- t.dropped + 1;
  Metric.incr m_dropped;
  Metric.incr drop_counters.(code);
  Trace.record Trace.default ~now:(Engine.now (Network.engine t.net)) ~kind:k_drop
    packet.Packet.id code;
  on_dropped ~reason packet

let[@hot] deliver t packet ~on_delivered node =
  t.delivered <- t.delivered + 1;
  Metric.incr m_delivered;
  Trace.record Trace.default ~now:(Engine.now (Network.engine t.net)) ~kind:k_deliver
    packet.Packet.id node;
  on_delivered ~node packet

let[@hot] rec at_node t packet ~on_dropped ~on_delivered node hops =
  if hops > hop_limit then drop t packet ~on_dropped "ttl" drop_ttl
  else begin
    match Network.route_for_addr t.net ~node (Packet.forwarding_dst packet) with
    | None -> drop t packet ~on_dropped "unroutable" drop_unroutable
    | Some route ->
        if Route.local route then deliver t packet ~on_delivered node
        else begin
          match route.Route.learned_from with
          | None -> deliver t packet ~on_delivered node
          | Some next -> forward t packet ~on_dropped ~on_delivered node next hops
        end
  end

and[@hot] forward t packet ~on_dropped ~on_delivered node next hops =
  let key = hop_key t node next in
  match Array.unsafe_get t.links key with
  | None -> drop t packet ~on_dropped "unroutable" drop_unroutable
  | Some link ->
      if Bytes.get t.failed_links key <> '\000' then
        drop t packet ~on_dropped "link-failure" drop_link_failure
      else if
        t.fault_count > 0
        && t.fault_loss.(key) > 0.0
        && Rng.float t.rng 1.0 < t.fault_loss.(key)
      then drop t packet ~on_dropped "fault-loss" drop_fault
      else begin
        let jitter =
          if link.Link.jitter_ms > 0.0 then
            Float.max 0.0 (Rng.gaussian t.rng ~mean:0.0 ~std:link.Link.jitter_ms)
          else 0.0
        in
        (* One lane needs no hash: the default table's only entry. *)
        let lanes = t.lanes_of next in
        let lane =
          if Array.length lanes = 1 then lanes.(0)
          else Ecmp.lane_delay_ms lanes ~hash:(Packet.forwarding_hash ~salt:next packet)
        in
        let engine = Network.engine t.net in
        let now_s = Engine.now engine in
        let dynamic = t.extra_delay_ms ~from_node:node ~to_node:next ~time_s:now_s in
        let fault_ms =
          if t.fault_count > 0 then t.fault_extra.(key) ~time_s:now_s else 0.0
        in
        let transmission_s =
          Link.transmission_delay_ms link ~bytes:(Packet.wire_size packet) /. 1000.0
        in
        let delay_s =
          ((link.Link.delay_ms +. jitter +. lane +. dynamic +. fault_ms) /. 1000.0)
          +. transmission_s
        in
        Metric.incr m_forwarded;
        (* tango-lint: allow hot-alloc — event-engine continuation: one closure per scheduled hop *)
        Engine.schedule engine ~delay:(Float.max 0.0 delay_s) (fun _ ->
            at_node t packet ~on_dropped ~on_delivered next (hops + 1))
      end

let[@hot] send t ~from_node ?(on_dropped = drop_ignored) ~on_delivered packet =
  t.sent <- t.sent + 1;
  Metric.incr m_sent;
  at_node t packet ~on_dropped ~on_delivered from_node 0

(* ------------------------------------------------------------------ *)
(* Direct batched sends for the multicore lanes (DESIGN.md §11).

   [send] resolves the route hop by hop, on arrival, with one scheduled
   engine event per hop — faithful, but every hop pays that event and
   its continuation closure, a scan of the node's forwarding table
   (allocation-free, see Speaker.lookup), the link-snapshot read and
   the delay hooks. The direct path instead snapshots the
   whole route once per (from, dst) pair and reuses it for every packet
   of every batch until the control plane changes ([Network.revision]
   moves). That snapshot is only sound when nothing along the route is
   stochastic or dynamic, so eligibility is checked at three levels:

   - per fabric: no fault hooks installed, no custom lanes_of or
     extra_delay_ms hooks;
   - per route: every link has zero jitter ([e_plain]);
   - per batch: no failed link along the snapshot.

   Anything else falls back to the canonical [send], packet by packet,
   in order, and is counted in [direct_fallbacks]. The direct path
   resolves the route at injection time (a FIB snapshot, like a real
   batched fast path), whereas [send] re-resolves at each hop's
   arrival; the two can differ only while BGP messages are in flight,
   which the revision check turns into a cache flush. *)

let no_addr = Tango_net.Addr.of_string_exn "::"

let empty_route =
  {
    e_from = -1;
    e_dst = no_addr;
    e_dest = -1;
    e_links = [||];
    e_delay_s = 0.0;
    e_per_byte_s = 0.0;
    e_plain = false;
  }

(* Walk the converged tables from [from_node] toward [dst], summing the
   deterministic delay terms. Unroutable / over-limit walks yield a
   non-plain entry, which routes every packet through the fallback (and
   thus through [send]'s exact drop accounting). *)
let resolve_route t ~from_node ~dst =
  let links = ref [] in
  let delay_s = ref 0.0 in
  let per_byte_s = ref 0.0 in
  let plain = ref true in
  (* tango-lint: allow hot-reach — runs once per (from, dst) pair per control-plane revision, on a route-cache fill, not per packet *)
  let rec walk node hops =
    if hops > hop_limit then None
    else
      match Network.route_for_addr t.net ~node dst with
      | None -> None
      | Some route ->
          if Route.local route then Some node
          else begin
            match route.Route.learned_from with
            | None -> Some node
            | Some next -> (
                let key = hop_key t node next in
                match t.links.(key) with
                | None -> None
                | Some link ->
                    (* tango-lint: allow hot-reach — runs once per (from, dst) pair per control-plane revision, on a route-cache fill, not per packet *)
                    links := key :: !links;
                    delay_s := !delay_s +. (link.Link.delay_ms /. 1000.0);
                    per_byte_s :=
                      !per_byte_s +. (8.0 /. (link.Link.bandwidth_mbps *. 1e6));
                    if link.Link.jitter_ms > 0.0 then plain := false;
                    walk next (hops + 1))
          end
  in
  match walk from_node 0 with
  | None ->
      (* tango-lint: allow hot-reach — runs once per (from, dst) pair per control-plane revision, on a route-cache fill, not per packet *)
      { empty_route with e_from = from_node; e_dst = dst }
  | Some dest ->
      (* tango-lint: allow hot-reach — runs once per (from, dst) pair per control-plane revision, on a route-cache fill, not per packet *)
      {
        e_from = from_node;
        e_dst = dst;
        e_dest = dest;
        e_links = Array.of_list (List.rev !links);
        e_delay_s = !delay_s;
        e_per_byte_s = !per_byte_s;
        e_plain = !plain;
      }

let[@hot] batch_eligible t = t.fault_count = 0 && not t.custom_hooks

(* Flush the route cache whenever the control plane may have moved.
   Called once per batch, not per packet. *)
let[@hot] revalidate_routes t =
  let rev = Network.revision t.net in
  if rev <> t.route_rev then begin
    Array.fill t.route_cache 0 route_cache_slots None;
    t.route_rev <- rev
  end

let[@hot] rec lookup_route t ~from_node ~dst slot =
  if slot >= route_cache_slots then begin
    let entry = resolve_route t ~from_node ~dst in
    t.route_cache.(t.route_clock) <- Some entry;
    t.route_clock <- (t.route_clock + 1) mod route_cache_slots;
    entry
  end
  else
    match Array.unsafe_get t.route_cache slot with
    (* The lanes pass the same endpoint values in every batch, so
       physical equality settles most hits without [Addr.equal]'s
       calls across modules. *)
    | Some e
      when e.e_from = from_node
           && (e.e_dst == dst || Tango_net.Addr.equal e.e_dst dst) ->
        e
    | Some _ | None -> lookup_route t ~from_node ~dst (slot + 1)

let[@hot] rec links_ok_from t links i =
  i >= Array.length links
  || Bytes.unsafe_get t.failed_links (Array.unsafe_get links i) = '\000'
     && links_ok_from t links (i + 1)

let route_plain t ~from_node ~dst =
  batch_eligible t
  &&
  begin
    revalidate_routes t;
    let e = lookup_route t ~from_node ~dst 0 in
    e.e_plain && links_ok_from t e.e_links 0
  end

(* The per-slot step of the direct path, the same for both batch
   forms: route slot [i] by its tunnel endpoint and write its
   closed-form arrival into the batch's arrival column. Returns the
   delivering node, or -1 when the route is not plain. *)
let[@hot] direct_slot t ~from_node ~now_s (batch : Batch.t) i =
  let e = lookup_route t ~from_node ~dst:(Array.unsafe_get batch.Batch.dst i) 0 in
  if e.e_plain && links_ok_from t e.e_links 0 then begin
    t.sent <- t.sent + 1;
    t.direct_sent <- t.direct_sent + 1;
    Array.unsafe_set batch.Batch.arrival i
      (now_s +. e.e_delay_s
      +. (float_of_int (Array.unsafe_get batch.Batch.bytes i) *. e.e_per_byte_s));
    t.delivered <- t.delivered + 1;
    t.direct_delivered <- t.direct_delivered + 1;
    e.e_dest
  end
  else -1

(* A slot the direct path cannot carry: counted, its arrival set to nan.
   A packet slot goes through the canonical [send], whose delivery
   reports the engine's clock; an encap slot has no packet to send and
   is not delivered. *)
let fallback t ~from_node ?on_delivered_at (batch : Batch.t) i =
  t.direct_fallbacks <- t.direct_fallbacks + 1;
  batch.Batch.arrival.(i) <- Float.nan;
  let packet = batch.Batch.packets.(i) in
  if packet != Batch.no_packet then begin
    let engine = Network.engine t.net in
    (* tango-lint: allow hot-reach — one closure per fallback packet, on the canonical-send slow path that direct slots never take *)
    let on_delivered ~node packet =
      match on_delivered_at with
      | Some f -> f ~node ~at_s:(Engine.now engine) packet
      | None -> ()
    in
    send t ~from_node ~on_delivered packet
  end

let[@hot] send_batch_direct t ~from_node ~now_s ?on_delivered_at (batch : Batch.t) =
  let eligible = batch_eligible t in
  if eligible then revalidate_routes t;
  for i = 0 to batch.Batch.len - 1 do
    let node = if eligible then direct_slot t ~from_node ~now_s batch i else -1 in
    if node < 0 then fallback t ~from_node ?on_delivered_at batch i
    else
      match on_delivered_at with
      | Some f ->
          f ~node
            ~at_s:(Array.unsafe_get batch.Batch.arrival i)
            (Array.unsafe_get batch.Batch.packets i)
      | None -> ()
  done

let direct_fallbacks t = t.direct_fallbacks

(* Publish the direct-path deltas into the process-wide registry.
   Idempotent; call only at quiesce points (after every lane domain has
   been joined), never while lanes run. *)
let quiesce_metrics t =
  let ds = t.direct_sent - t.published_sent in
  let dd = t.direct_delivered - t.published_delivered in
  if ds > 0 then Metric.add m_sent ds;
  if dd > 0 then Metric.add m_delivered dd;
  t.published_sent <- t.direct_sent;
  t.published_delivered <- t.direct_delivered

let fail_link t ~from_node ~to_node =
  Bytes.set t.failed_links (link_key t ~from_node ~to_node) '\001'

let heal_link t ~from_node ~to_node =
  Bytes.set t.failed_links (link_key t ~from_node ~to_node) '\000'

(* ------------------------------------------------------------------ *)
(* Fault-injection hooks (driven by lib/faults).                        *)

let set_link_fault t ~from_node ~to_node ?(loss = 0.0) ?extra_delay_ms () =
  if loss < 0.0 || loss > 1.0 then
    Err.invalid "Fabric.set_link_fault: loss %g outside [0,1]" loss;
  let key = link_key t ~from_node ~to_node in
  if Bytes.get t.fault_set key = '\000' then begin
    Bytes.set t.fault_set key '\001';
    t.fault_count <- t.fault_count + 1
  end;
  t.fault_loss.(key) <- loss;
  t.fault_extra.(key) <-
    (match extra_delay_ms with Some f -> f | None -> no_fault_extra_ms)

let clear_link_fault t ~from_node ~to_node =
  let key = link_key t ~from_node ~to_node in
  if Bytes.get t.fault_set key <> '\000' then begin
    Bytes.set t.fault_set key '\000';
    t.fault_count <- t.fault_count - 1
  end;
  t.fault_loss.(key) <- 0.0;
  t.fault_extra.(key) <- no_fault_extra_ms

let fault_count t = t.fault_count

let[@hot] link_fault_extra_ms t ~from_node ~to_node ~time_s =
  if t.fault_count = 0 then 0.0
  else t.fault_extra.(link_key t ~from_node ~to_node) ~time_s

let sent t = t.sent

let delivered t = t.delivered

let dropped t = t.dropped
