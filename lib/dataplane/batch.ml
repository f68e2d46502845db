(* Fixed-size packet batches for the batched dataplane (DESIGN.md §11).

   A batch is a preallocated 64-slot array plus a length: the XDP-style
   unit of work that lets the lanes' Fabric.send_batch_direct amortize
   its per-send overhead (eligibility checks, route-cache validation,
   callback closures, the fault-hook branches) across up to 64 packets.
   The slot array is allocated once, on the first [add] (OCaml arrays
   need a seed element, and the first packet is it); after that the
   steady-state path writes in place and allocates nothing. [clear]
   only resets the length — slots keep their last packet reference
   until overwritten, which pins at most one stale batch of packets and
   costs nothing. *)

module Packet = Tango_net.Packet

let capacity = 64

type t = { mutable slots : Packet.t array; mutable len : int }

let create () = { slots = [||]; len = 0 }

let length t = t.len

let[@hot] is_full t = t.len >= capacity

let[@hot] is_empty t = t.len = 0

let[@hot] clear t = t.len <- 0

let[@hot] add t packet =
  if t.len >= capacity then Err.invalid "Batch.add: batch full (%d slots)" capacity;
  if Array.length t.slots = 0 then begin
    (* One-time slot allocation, seeded by the first packet ever added. *)
    t.slots <- Array.make capacity packet;
    t.len <- 1
  end
  else begin
    Array.unsafe_set t.slots t.len packet;
    t.len <- t.len + 1
  end

let[@hot] get t i =
  if i < 0 || i >= t.len then Err.invalid "Batch.get: index %d outside [0, %d)" i t.len;
  Array.unsafe_get t.slots i

let iter t ~f =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.slots i)
  done

(* Drop the stale packet references [clear] leaves behind by refilling
   every slot with slot 0's packet — after this, the batch keeps at most
   one packet alive. Lane loops call this at quiesce boundaries so a
   minor collection there finds no transient packets to promote. *)
let purge t =
  if Array.length t.slots > 0 then
    Array.fill t.slots 0 capacity (Array.unsafe_get t.slots 0);
  t.len <- 0
