(** Mesh membership + table-digest gossip with deterministic fanout:
    the liveness job of the pairwise control channel of [lib/ctrl],
    done for N PoPs.

    Each PoP keeps a membership view (per-subject alive bit with a
    last-write-wins virtual-time stamp) and a version counter for its
    own routing table. Anti-entropy rounds push rows to a rotation of
    CSR neighbors that is a pure function of (round, fanout, degree):
    seeded runs gossip identically, message for message. View digests
    fold through the shared FNV-1a step and seed
    ({!Tango_net.Fnv.mix}).

    Gossip converges membership and lets sources account for remote
    failures; it is {e not} on the failover path — a relay whose next
    hop died rotates arborescences locally in O(1) (see {!Relay})
    without waiting for any round trip. *)

type t

val create : topo:Mtopo.t -> engine:Tango_sim.Engine.t -> unit -> t
(** Rounds run every 0.1 s with a fanout of 2. Everyone starts believed
    alive. *)

val start : t -> pop_alive:(int -> bool) -> until:float -> unit
(** Schedule anti-entropy rounds on the engine until [until].
    [pop_alive] is liveness ground truth (dead PoPs neither push nor
    merge). *)

val observe :
  t -> observer:int -> subject:int -> alive:bool -> now:float -> pop_alive:(int -> bool) -> unit
(** Local detection entry point: the relay layer reports a hello
    timeout (or recovery) it witnessed first-hand. *)

val bump_table_version : t -> pop:int -> unit
(** The relay layer bumps this when a PoP rotates its arborescence
    preference — table churn shows up in the digest. *)

val distinct_digests : t -> pop_alive:(int -> bool) -> int
(** Number of distinct digests among live PoPs: 1 = converged. *)

val all_dead_at : t -> subject:int -> float
(** Virtual time when the {e last} live PoP learned [subject] was dead
    ([nan] if that never happened) — the convergence latency metric. *)

val msgs : t -> int
