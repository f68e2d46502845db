(* Generation-stamped flow -> path map, the software analogue of the
   eBPF per-flow decision map a Tango switch would keep: the expensive
   policy evaluation runs once per flow epoch and every later packet of
   the flow hits an O(1) int-keyed lookup. Invalidation is O(1) too —
   bumping the generation strands every stored entry, and stale slots
   are overwritten in place on their next miss, so flipping the
   preferred path never walks the table.

   Resident state is bounded: entries live in flat slot arrays of
   [capacity] entries, found through an open-addressing index (linear
   probing over a power-of-two int array at most half full, deletion by
   backward shift, so no tombstones), and a clock hand evicts when the
   slots fill. The hand is generation-aware: a slot stamped with an
   older generation is already worthless (a lookup would miss anyway),
   so it is reclaimed on sight, while fresh entries get the classic
   one-bit second chance. Nothing on the per-packet path allocates: a
   hit is an index probe, one array load and one ref-bit store, and
   returns one of 256 preallocated [Some path] values; a miss, a store
   and an eviction only rewrite array cells. A cache whose capacity
   covers every flow it sees never evicts, which is how callers get the
   behavior of an unbounded map. *)

module Metric = Tango_obs.Metric

(* Process-wide eviction pressure, aggregated across caches (one cache
   per dataplane lane; see DESIGN.md §14). *)
let m_evictions =
  Metric.counter ~help:"Bounded flow-cache entries evicted by the clock hand"
    "flow_cache_evictions_total"

(* Entries pack (generation, path) into one int so a hit allocates
   nothing: generation lsl path_bits lor path. *)
let path_bits = 8

let max_path = (1 lsl path_bits) - 1

(* The option a hit returns, one per path id, built once. *)
let some_path = Array.init (max_path + 1) (fun p -> Some p)

(* The generation stamp gets everything above the path byte except the
   top bit (packed entries stay positive): int_size - 1 - path_bits
   bits, i.e. 54 on 64-bit. The stamp wraps modulo 2^gen_bits; an
   unmasked [generation lsl path_bits] would silently drop high bits
   instead, letting a stale entry stamped g alias generation
   g + 2^gen_bits and serve an orphaned decision. On wrap the table is
   reset, because entries stamped in the stamp's previous life at the
   same masked value would otherwise read as fresh. *)
let gen_bits = Sys.int_size - 1 - path_bits

let gen_mask = (1 lsl gen_bits) - 1

let max_generation = gen_mask

type t = {
  index : int array;  (* bucket -> slot, -1 when empty *)
  index_bits : int;  (* Array.length index = 2^index_bits >= 2 * capacity *)
  capacity : int;
  slot_key : int array;  (* length = capacity *)
  slot_packed : int array;
  slot_ref : Bytes.t;  (* clock-hand second-chance bits *)
  mutable hand : int;
  mutable filled : int;  (* slots in use; resets only on generation wrap *)
  mutable evictions : int;
  mutable generation : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(expected_flows = 1024) ?(capacity = expected_flows) () =
  if capacity <= 0 then
    Err.invalid "Flow_cache.create: capacity %d must be positive" capacity;
  let bits = ref 1 in
  while 1 lsl !bits < 2 * capacity do
    incr bits
  done;
  {
    index = Array.make (1 lsl !bits) (-1);
    index_bits = !bits;
    capacity;
    slot_key = Array.make capacity 0;
    slot_packed = Array.make capacity 0;
    slot_ref = Bytes.make capacity '\000';
    hand = 0;
    filled = 0;
    evictions = 0;
    generation = 0;
    hits = 0;
    misses = 0;
  }

(* Home bucket of a flow hash: Fibonacci hashing, the top [index_bits]
   bits of the product, so keys that differ only in their high bits
   still spread. *)
let[@hot] home t key = (key * 0x278DDE6E5FD29F05) lsr (Sys.int_size - t.index_bits)

(* The bucket holding [key], or the empty bucket where it would go: the
   index is at most half full, so the probe always ends. *)
let[@hot] rec probe t key b =
  let s = Array.unsafe_get t.index b in
  if s < 0 || Array.unsafe_get t.slot_key s = key then b
  else probe t key ((b + 1) land (Array.length t.index - 1))

(* Empty bucket [hole] by backward shift: walk the probe run after it
   and move back every entry whose home does not lie cyclically in
   (hole, j], so every remaining key stays reachable from its home. *)
let rec close_hole t hole j =
  let mask = Array.length t.index - 1 in
  let j = (j + 1) land mask in
  let s = Array.unsafe_get t.index j in
  if s < 0 then Array.unsafe_set t.index hole (-1)
  else begin
    let h = home t (Array.unsafe_get t.slot_key s) in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then close_hole t hole j
    else begin
      Array.unsafe_set t.index hole s;
      close_hole t j j
    end
  end

let[@hot] find t ~flow_hash =
  let slot = Array.unsafe_get t.index (probe t flow_hash (home t flow_hash)) in
  if slot >= 0 then begin
    let packed = Array.unsafe_get t.slot_packed slot in
    if packed lsr path_bits = t.generation then begin
      t.hits <- t.hits + 1;
      Bytes.unsafe_set t.slot_ref slot '\001';
      Array.unsafe_get some_path (packed land max_path)
    end
    else begin
      t.misses <- t.misses + 1;
      None
    end
  end
  else begin
    t.misses <- t.misses + 1;
    None
  end

(* Advance the clock hand to the next reclaimable slot. Stale-generation
   slots are reclaimed on sight (their entry can never hit again until
   overwritten); fresh slots spend their second-chance bit first. Worst
   case one full sweep clears every ref bit and the next visit evicts,
   so the [steps] guard is belt-and-braces termination, never the common
   exit. *)
let rec clock_sweep t steps =
  let s = t.hand in
  t.hand <- (if s + 1 = t.capacity then 0 else s + 1);
  if Array.unsafe_get t.slot_packed s lsr path_bits <> t.generation then s
  else if Bytes.unsafe_get t.slot_ref s <> '\000' && steps < 2 * t.capacity
  then begin
    Bytes.unsafe_set t.slot_ref s '\000';
    clock_sweep t (steps + 1)
  end
  else s

(* Fill [slot] with a new key and point the empty bucket [b] at it. *)
let[@hot] insert t b slot ~flow_hash packed =
  Array.unsafe_set t.slot_key slot flow_hash;
  Array.unsafe_set t.slot_packed slot packed;
  Bytes.unsafe_set t.slot_ref slot '\001';
  Array.unsafe_set t.index b slot

let[@hot] store t ~flow_hash path =
  if path < 0 || path > max_path then
    Err.invalid "Flow_cache.store: path %d outside [0, %d]" path max_path;
  let packed = (t.generation lsl path_bits) lor path in
  let b = probe t flow_hash (home t flow_hash) in
  let slot = Array.unsafe_get t.index b in
  if slot >= 0 then begin
    Array.unsafe_set t.slot_packed slot packed;
    Bytes.unsafe_set t.slot_ref slot '\001'
  end
  else if t.filled < t.capacity then begin
    let s = t.filled in
    t.filled <- s + 1;
    insert t b s ~flow_hash packed
  end
  else begin
    let s = clock_sweep t 0 in
    let victim = Array.unsafe_get t.slot_key s in
    let vb = probe t victim (home t victim) in
    close_hole t vb vb;
    t.evictions <- t.evictions + 1;
    Metric.incr m_evictions;
    (* The shift may have moved an entry into bucket [b]: probe again. *)
    insert t (probe t flow_hash (home t flow_hash)) s ~flow_hash packed
  end

let invalidate t =
  let next = (t.generation + 1) land gen_mask in
  (* Wraparound: the new stamp value collides with stamps from the
     previous trip around, so drop the stored entries outright — a
     once-per-2^54-invalidations O(n) cost that buys an exact "a stale
     generation is never served" guarantee. The slot arrays are
     implicitly cleared too: an empty index means no slot is ever read,
     and the fill pointer restarts from zero. *)
  if next = 0 then begin
    Array.fill t.index 0 (Array.length t.index) (-1);
    t.filled <- 0;
    t.hand <- 0
  end;
  t.generation <- next

let generation t = t.generation

let set_generation t g =
  if g < 0 || g > max_generation then
    Err.invalid "Flow_cache.set_generation: %d outside [0, %d]" g max_generation;
  t.generation <- g

let hits t = t.hits

let misses t = t.misses

(* Every filled slot has exactly one index entry: a new key takes a slot
   and an entry together, an eviction moves the slot to a new key. *)
let resident t = t.filled

let evictions t = t.evictions
