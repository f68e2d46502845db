(* Fixed-size columnar batches for the batched dataplane (DESIGN.md §11).

   A batch is 64 slots spread over preallocated flat columns plus a
   length: the XDP-style unit of work that lets the lanes'
   Fabric.send_batch_direct amortize its per-send overhead (eligibility
   checks, route resolution, the fault-hook branches) across up to 64
   sends. A lane encapsulates a send by writing its endpoint, size,
   path, flow and sequence into the columns — no packet record, no
   encap record, no boxed int64 — and the fabric writes each slot's
   arrival into a float column. The endpoint column holds ints: each
   slot's index into the batch's table of distinct endpoints, kept in
   first-appearance order and matched by physical identity (a lane
   passes the same few endpoint values in every batch), so the fabric
   resolves each endpoint once per batch and a slot stores no pointer.
   The packet form ([add]) fills the same columns through the same step
   and also keeps the packet, for callers that want it back. [clear]
   only resets the length and the table — slots keep their last packet
   and endpoint references until overwritten, which pins at most one
   stale batch of them and costs nothing. *)

module Addr = Tango_net.Addr
module Packet = Tango_net.Packet

let capacity = 64

type t = {
  dst : int array;
  endpoints : Addr.t array;
  mutable endpoint_count : int;
  bytes : int array;
  path : int array;
  flow : int array;
  seq : int array;
  arrival : float array;
  packets : Packet.t array;
  mutable stamp_ns : int;
  mutable len : int;
}

let no_addr = Addr.of_string_exn "::"

let no_packet =
  Packet.create ~id:(-1)
    ~flow:(Tango_net.Flow.v ~src:no_addr ~dst:no_addr ~proto:17 ~src_port:0 ~dst_port:0)
    ~payload_bytes:0 ~created_at:0.0 ()

let create () =
  {
    dst = Array.make capacity 0;
    endpoints = Array.make capacity no_addr;
    endpoint_count = 0;
    bytes = Array.make capacity 0;
    path = Array.make capacity 0;
    flow = Array.make capacity 0;
    seq = Array.make capacity 0;
    arrival = Array.make capacity 0.0;
    packets = Array.make capacity no_packet;
    stamp_ns = 0;
    len = 0;
  }

let length t = t.len

let[@hot] is_empty t = t.len = 0

let[@hot] clear t =
  t.len <- 0;
  t.endpoint_count <- 0

let set_stamp_ns t ns = t.stamp_ns <- ns

(* The table index of [dst], appended when the batch has not seen it.
   A store only when the table slot holds another value: a lane that
   meets its endpoints in the same order every batch writes no pointer
   here either. The table never outgrows the slots, so it never
   overflows. *)
let[@hot] rec endpoint_index t dst j =
  if j >= t.endpoint_count then begin
    if Array.unsafe_get t.endpoints j != dst then Array.unsafe_set t.endpoints j dst;
    t.endpoint_count <- j + 1;
    j
  end
  else if Array.unsafe_get t.endpoints j == dst then j
  else endpoint_index t dst (j + 1)

(* The one per-slot fill both forms go through. An encap slot always
   holds [no_packet], so only the packet form stores a pointer. *)
let[@hot] fill t ~dst ~bytes ~path ~flow ~seq packet =
  let i = t.len in
  if i >= capacity then Err.invalid "Batch: batch full (%d slots)" capacity;
  Array.unsafe_set t.dst i (endpoint_index t dst 0);
  Array.unsafe_set t.bytes i bytes;
  Array.unsafe_set t.path i path;
  Array.unsafe_set t.flow i flow;
  Array.unsafe_set t.seq i seq;
  if Array.unsafe_get t.packets i != packet then Array.unsafe_set t.packets i packet;
  t.len <- i + 1

let[@hot] encap t ~dst ~bytes ~path ~flow ~seq =
  fill t ~dst ~bytes ~path ~flow ~seq no_packet

let[@hot] add t (packet : Packet.t) =
  let bytes = Packet.wire_size packet in
  match packet.Packet.encap with
  | Some e ->
      let h = e.Packet.tango in
      fill t ~dst:e.Packet.outer_dst ~bytes ~path:h.Packet.path_id
        ~flow:packet.Packet.id ~seq:(Int64.to_int h.Packet.seq) packet
  | None ->
      fill t ~dst:(Packet.forwarding_dst packet) ~bytes ~path:(-1)
        ~flow:packet.Packet.id ~seq:(-1) packet

let purge t =
  Array.fill t.packets 0 capacity no_packet;
  Array.fill t.endpoints 0 capacity no_addr;
  clear t
