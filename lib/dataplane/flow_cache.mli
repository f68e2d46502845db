(** Per-flow path-decision cache — the software analogue of the eBPF
    decision map a Tango switch keeps so the policy runs once per flow
    epoch, not once per packet.

    Keys are {!Tango_net.Flow.hash_5tuple} values; entries are stamped
    with the cache's generation. {!invalidate} bumps the generation in
    O(1), instantly orphaning every stored decision (stale slots are
    overwritten in place on their next miss) — this is how a telemetry
    update that flips the preferred path flushes the fast path without
    walking the table. Lookups go through a flat open-addressing index
    from flow hash to slot, and a hit returns a preallocated [Some path]:
    hits, misses, stores and evictions allocate nothing.

    Resident state is bounded: entries live in flat slot arrays and a
    generation-aware clock hand evicts when the slots fill
    (stale-generation victims are reclaimed on sight, fresh entries get
    a one-bit second chance). With capacity at least the number of
    distinct flows the cache never evicts, so it behaves exactly like an
    unbounded map — a property the test suite checks against one. *)

type t

val create : ?expected_flows:int -> ?capacity:int -> unit -> t
(** [capacity] bounds resident entries (default [expected_flows], which
    defaults to 1024); the slot arrays are allocated here, at full
    size. Raises {!Err.Invalid} when [capacity <= 0]. *)

val find : t -> flow_hash:int -> int option
(** The cached path for the flow, or [None] when absent or stamped with
    an older generation. Counts a hit or a miss; a hit also sets the
    slot's second-chance bit. *)

val store : t -> flow_hash:int -> int -> unit
(** Record the decision for the current generation, evicting a victim
    first when the cache is full and the flow is new. Raises
    {!Err.Invalid} for path ids outside [0, 255] (path ids pack into
    the low byte of a generation-stamped entry). *)

val invalidate : t -> unit
(** Orphan every cached decision (O(1) generation bump). The stamp is a
    packed-int field of [Sys.int_size - 9] bits (54 on 64-bit): it wraps
    modulo [max_generation + 1], and on wrap the table is reset so an
    entry stamped in the stamp's previous life can never read as fresh. *)

(* test-hook: test/test_dataplane.ml *)
val max_generation : int
(** Largest generation stamp; {!invalidate} wraps past it to 0. *)

(* test-hook: test/test_dataplane.ml *)
val set_generation : t -> int -> unit
(** Force the generation stamp — a test hook for exercising wraparound
    without 2^54 {!invalidate} calls. Raises {!Err.Invalid} outside
    [0, max_generation]. *)

(* test-hook: test/test_dataplane.ml *)
val generation : t -> int
(** The current stamp, read by the wraparound test. *)

val hits : t -> int
val misses : t -> int

val resident : t -> int
(** Distinct flows currently occupying slots, stale ones included;
    never exceeds the capacity. *)

val evictions : t -> int
(** Entries reclaimed by the clock hand. *)
