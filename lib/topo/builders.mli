(** Topology generators for tests and benchmarks. *)

(* test-hook: test/test_bgp.ml *)
val chain : int -> Topology.t
(** [chain n] — node 0 is the top provider, node [i] is the provider of
    node [i+1]. Node ids and ASNs are [0 .. n-1]. The smallest
    hierarchy, the fixture of the BGP, dataplane and pair tests. *)

val random_hierarchy :
  seed:int -> tier1:int -> tier2:int -> stubs:int -> Topology.t
(** Random three-tier Internet-like topology: a tier-1 clique; each tier-2
    AS buys transit from 1–3 tier-1s and peers with some tier-2s; each
    stub buys from 1–2 tier-2s. Node ids are assigned densely from 0.
    Deterministic in [seed]. *)
