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

type t = {
  net : Network.t;
  rng : Rng.t;
  lanes_of : int -> Ecmp.lanes;
  (* Whether the caller supplied lanes_of/extra_delay_ms hooks: hooked
     fabrics never take the direct path (the hooks are per-hop and
     per-packet by contract). *)
  custom_hooks : bool;
  (* The hop memo, the forwarding step of both paths: per node
     position, a row of up to [memo_width] (destination, next hop)
     pairs in fill order, validated against the Network.revision stamp
     [rev] and flushed whenever any BGP table may have changed. *)
  mutable rev : int;
  memo_dst : Tango_net.Addr.t array;  (* row [pos * memo_width] *)
  memo_hop : int array;  (* a node id, [hop_deliver] or [hop_unroutable] *)
  memo_len : int array;  (* live entries per row *)
  (* The current batch's endpoints, resolved once per
     send_batch_direct call: the delivering node (-1 when the direct
     path cannot carry the endpoint) and the arrival formula's terms.
     The entry past the batch capacity is [route_plain]'s scratch. *)
  ep_dest : int array;
  ep_delay_s : float array;
  ep_per_byte_s : float array;
  (* Counters for the synchronous direct path, which must not touch the
     process-wide Metric registry (lanes run on their own domains):
     published into the registry at quiesce points. *)
  mutable direct_sent : int;  (* every direct send is delivered *)
  mutable published : int;
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
  tx_divisor : float array;  (* a link's [bandwidth_mbps *. 1000.0] *)
  failed_links : Bytes.t;
  (* The links the [extra_delay_ms] resolver gave a delay process at
     [create], flagged, and their processes. *)
  dynamic : Bytes.t;
  dynamic_ms : (time_s:float -> float) array;
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

let memo_width = 16

let hop_deliver = -1

let hop_unroutable = -2

let no_addr = Tango_net.Addr.of_string_exn "::"

let scratch = Batch.capacity

let create ?(seed = 4242) ?lanes_of ?extra_delay_ms net =
  let custom_hooks = Option.is_some lanes_of || Option.is_some extra_delay_ms in
  let lanes_of =
    match lanes_of with Some f -> f | None -> fun _ -> no_lanes
  in
  let resolve =
    Option.value extra_delay_ms ~default:(fun ~from_node:_ ~to_node:_ -> None)
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
  let tx_divisor = Array.make (n * n) 0.0 in
  let dynamic = Bytes.make (n * n) '\000' in
  let dynamic_ms = Array.make (n * n) no_fault_extra_ms in
  List.iteri
    (fun i (a : Topology.node) ->
      List.iteri
        (fun j (b : Topology.node) ->
          let key = (i * n) + j in
          match Topology.link topo a.Topology.id b.Topology.id with
          | None -> ()
          | Some link as snapshot -> (
              links.(key) <- snapshot;
              tx_divisor.(key) <- link.Link.bandwidth_mbps *. 1000.0;
              match resolve ~from_node:a.Topology.id ~to_node:b.Topology.id with
              | None -> ()
              | Some f ->
                  Bytes.set dynamic key '\001';
                  dynamic_ms.(key) <- f))
        nodes)
    nodes;
  {
    net;
    rng = Rng.create ~seed;
    lanes_of;
    custom_hooks;
    rev = -1;
    memo_dst = Array.make (n * memo_width) no_addr;
    memo_hop = Array.make (n * memo_width) hop_unroutable;
    memo_len = Array.make n 0;
    ep_dest = Array.make (scratch + 1) (-1);
    ep_delay_s = Array.make (scratch + 1) 0.0;
    ep_per_byte_s = Array.make (scratch + 1) 0.0;
    direct_sent = 0;
    published = 0;
    direct_fallbacks = 0;
    n;
    pos;
    links;
    tx_divisor;
    failed_links = Bytes.make (n * n) '\000';
    dynamic;
    dynamic_ms;
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

(* ------------------------------------------------------------------ *)
(* The forwarding step: a node's next hop toward a destination.

   Both paths take it: [send] at each hop's arrival, the direct path at
   each node of its walk. Each (node, destination) pair is looked up in
   the node's forwarding table (Network.route_for_addr) once per
   control-plane revision and then read from the node's memo row; a
   full row falls back to the table. *)

(* A moved stamp flushes the memo: the control plane may have moved
   since the last check (Network.revision bumps on every announce,
   withdraw and delivered update), so no entry it holds is still known
   to be current. *)
let[@hot] revalidate t =
  let rev = Network.revision t.net in
  if rev <> t.rev then begin
    Array.fill t.memo_len 0 t.n 0;
    t.rev <- rev
  end

(* The uncached step: one longest-prefix match on the node's table. *)
let hop_of_table t ~node dst =
  match Network.route_for_addr t.net ~node dst with
  | None -> hop_unroutable
  | Some route ->
      if Route.local route then hop_deliver
      else begin
        match route.Route.learned_from with
        | None -> hop_deliver
        | Some next -> next
      end

(* Index of [dst] in memo entries [i, stop), or -1. Callers pass the
   same destination values packet after packet, so a pass by physical
   identity settles most lookups before any [Addr.equal] runs. *)
let[@hot] rec memo_find t dst ~same i stop =
  if i >= stop then -1
  else
    let d = Array.unsafe_get t.memo_dst i in
    if if same then d == dst else Tango_net.Addr.equal d dst then i
    else memo_find t dst ~same (i + 1) stop

(* The step for callers that revalidated since the control plane last
   moved: the direct path revalidates once per call, not per node. *)
let[@hot] memo_hop t ~node dst =
  let p = position t node in
  (* An id that is not a node raises in the table lookup. *)
  if p < 0 then hop_of_table t ~node dst
  else begin
    let row = p * memo_width in
    let len = Array.unsafe_get t.memo_len p in
    let i = memo_find t dst ~same:true row (row + len) in
    let i = if i >= 0 then i else memo_find t dst ~same:false row (row + len) in
    if i >= 0 then Array.unsafe_get t.memo_hop i
    else begin
      let hop = hop_of_table t ~node dst in
      if len < memo_width then begin
        Array.unsafe_set t.memo_dst (row + len) dst;
        Array.unsafe_set t.memo_hop (row + len) hop;
        Array.unsafe_set t.memo_len p (len + 1)
      end;
      hop
    end
  end

let[@hot] next_hop t ~node dst =
  revalidate t;
  memo_hop t ~node dst

let[@hot] rec at_node t packet ~on_dropped ~on_delivered node hops =
  if hops > hop_limit then drop t packet ~on_dropped "ttl" drop_ttl
  else begin
    let next = next_hop t ~node (Packet.forwarding_dst packet) in
    if next >= 0 then forward t packet ~on_dropped ~on_delivered node next hops
    else if next = hop_deliver then deliver t packet ~on_delivered node
    else drop t packet ~on_dropped "unroutable" drop_unroutable
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
        let dynamic =
          if Bytes.unsafe_get t.dynamic key <> '\000' then
            (Array.unsafe_get t.dynamic_ms key) ~time_s:now_s
          else 0.0
        in
        let fault_ms =
          if t.fault_count > 0 then t.fault_extra.(key) ~time_s:now_s else 0.0
        in
        (* [Link.transmission_delay_ms] with its divisor read, not
           recomputed: the same operations in the same order. *)
        let transmission_s =
          float_of_int (Packet.wire_size packet * 8)
          /. Array.unsafe_get t.tx_divisor key
          /. 1000.0
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

   [send] takes the forwarding step at each hop's arrival, with one
   scheduled engine event per hop — faithful, but every hop pays that
   event and its continuation closure, the link-snapshot read and the
   delay hooks. The direct path instead walks each of a batch's
   distinct endpoints once per call, through the same step from
   [from_node], summing the delay terms of the links it crosses, and
   then every slot reads its endpoint's entry and writes a closed-form
   arrival. That is only sound when nothing along the route is
   stochastic or dynamic, so eligibility is checked at two levels:

   - per fabric: no fault hooks installed, no custom lanes_of or
     extra_delay_ms hooks;
   - per endpoint and call: the walk delivers within the hop limit,
     over links with zero jitter and none failed.

   Anything else falls back to the canonical [send], packet by packet,
   in order, and is counted in [direct_fallbacks]. The direct path
   resolves the route at injection time (a FIB snapshot, like a real
   batched fast path), whereas [send] re-resolves at each hop's
   arrival; the two can differ only while BGP messages are in flight. *)

(* Walk from [node] toward [dst] through the forwarding step, adding
   each link's delay terms into entry [j] of the endpoint table in walk
   order (the goldens pin these sums bit for bit): the delivering node,
   or -1 where the direct path cannot carry [dst] (no route, over the
   hop limit, a jittered or failed link), which sends its slots through
   the fallback and thus through [send]'s exact drop accounting. *)
let[@hot] rec walk t dst j node hops =
  if hops > hop_limit then -1
  else
    let next = memo_hop t ~node dst in
    if next = hop_unroutable then -1
    else if next < 0 then node
    else
      let key = hop_key t node next in
      match Array.unsafe_get t.links key with
      | None -> -1
      | Some link ->
          if link.Link.jitter_ms > 0.0 || Bytes.unsafe_get t.failed_links key <> '\000'
          then -1
          else begin
            Array.unsafe_set t.ep_delay_s j
              (Array.unsafe_get t.ep_delay_s j +. (link.Link.delay_ms /. 1000.0));
            Array.unsafe_set t.ep_per_byte_s j
              (Array.unsafe_get t.ep_per_byte_s j
              +. (8.0 /. (link.Link.bandwidth_mbps *. 1e6)));
            walk t dst j next (hops + 1)
          end

(* Callers revalidate first. *)
let[@hot] resolve_endpoint t ~from_node dst j =
  Array.unsafe_set t.ep_delay_s j 0.0;
  Array.unsafe_set t.ep_per_byte_s j 0.0;
  Array.unsafe_set t.ep_dest j (walk t dst j from_node 0)

let[@hot] batch_eligible t = t.fault_count = 0 && not t.custom_hooks

let route_plain t ~from_node ~dst =
  batch_eligible t
  && (revalidate t;
      resolve_endpoint t ~from_node dst scratch;
      t.ep_dest.(scratch) >= 0)

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

(* Each distinct endpoint is resolved once, then every slot reads its
   endpoint's entry and writes its closed-form arrival. *)
let[@hot] send_batch_direct t ~from_node ~now_s ?on_delivered_at (batch : Batch.t) =
  let endpoints = batch.Batch.endpoint_count in
  if batch_eligible t then begin
    revalidate t;
    for j = 0 to endpoints - 1 do
      resolve_endpoint t ~from_node (Array.unsafe_get batch.Batch.endpoints j) j
    done
  end
  else Array.fill t.ep_dest 0 endpoints (-1);
  for i = 0 to batch.Batch.len - 1 do
    let j = Array.unsafe_get batch.Batch.dst i in
    let node = Array.unsafe_get t.ep_dest j in
    if node < 0 then fallback t ~from_node ?on_delivered_at batch i
    else begin
      t.sent <- t.sent + 1;
      t.direct_sent <- t.direct_sent + 1;
      Array.unsafe_set batch.Batch.arrival i
        (now_s +. Array.unsafe_get t.ep_delay_s j
        +. (float_of_int (Array.unsafe_get batch.Batch.bytes i)
           *. Array.unsafe_get t.ep_per_byte_s j));
      t.delivered <- t.delivered + 1;
      match on_delivered_at with
      | Some f ->
          f ~node
            ~at_s:(Array.unsafe_get batch.Batch.arrival i)
            (Array.unsafe_get batch.Batch.packets i)
      | None -> ()
    end
  done

let direct_fallbacks t = t.direct_fallbacks

(* Publish the direct-path deltas into the process-wide registry.
   Idempotent; call only at quiesce points (after every lane domain has
   been joined), never while lanes run. *)
let quiesce_metrics t =
  let d = t.direct_sent - t.published in
  if d > 0 then begin
    Metric.add m_sent d;
    Metric.add m_delivered d
  end;
  t.published <- t.direct_sent

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
