(** Precomputed spanning arborescences: k in-trees per destination.

    The O(1) failover layer. The generated topology always contains the
    id-ring, so a Hamiltonian cycle through each destination gives a
    free st-numbering [pi v = (v - dst) mod pops]. The {e low} tree
    descends pi (each node parents its lowest-depth strictly-lower-pi
    neighbor), the {e high} tree ascends pi to the ring predecessor of
    the destination, which parents it directly. Both are spanning
    in-trees — parent pointers strictly descend/ascend a total order,
    so every path is loop-free and arrives within [pops] hops — and
    their paths from any node are internally vertex-disjoint: they
    share only the node itself and the destination. A single dead
    relay therefore blocks at most one of the pair, and a packet
    stuck on one tree rotates to the other with an O(1) array probe —
    never a recomputation. Tree 0 (when [k >= 3]) is the plain BFS
    shortest-path tree that the stitching layer walks; trees beyond
    the first three rotate the parent choice through the ordered
    lower/higher candidates, best-effort extra diversity. *)

type t

val build : ?k:int -> Mtopo.t -> t
(** [k] trees per destination (default 3). O(pops^2 * degree * k) build,
    performed once, off the packet path. Raises {!Err.Invalid} for
    [k < 1] or [k > 255]. *)

val k : t -> int
val pops : t -> int

val next_hop : t -> dst:int -> tree:int -> pop:int -> int
(** Parent of [pop] on [tree] toward [dst]; [-1] at the destination
    itself (or for an unreachable node). Allocation-free O(1). *)

(* test-hook: test/test_mesh.ml *)
val depth : t -> dst:int -> pop:int -> int
(** BFS hop distance to [dst] ([-1] if unreachable) — tree 0 realizes
    exactly these shortest paths, which the tests check against it. *)

val diversity : t -> float
(** Mean over all (dst, node) cells of
    [distinct_parents / min k (degree node)]: 1.0 when every node
    spreads its trees over as many distinct out-edges as the topology
    allows — the E15 "path diversity" column. *)
