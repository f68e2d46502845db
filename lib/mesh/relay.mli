(** The mesh dataplane: PoP-indexed flat forwarding state, segment-stack
    consumption, and O(1) arborescence failover.

    One value hosts every PoP of the mesh — per-PoP and per-edge state
    is flat arrays indexed by PoP id / CSR slot, so a single process
    scales to hundreds of PoPs. Forwarding pops one stack entry per
    hop; when the stacked next hop is locally dead (hello timeout) the
    frame flips to arborescence mode and the relay rotates to the next
    precomputed tree — at most [Arbor.k] O(1) probes. A PoP's own sends
    start on the tree its last failover chose; no dead tree is
    remembered, so every probe sees the current hello view. There is
    no rediscovery on the failover path; {!discovery_msgs} counts
    route-stitch computations so experiments can assert exactly that.

    Liveness is strictly local: a PoP trusts only its own hello view of
    its neighbors. Frames in flight toward a not-yet-detected dead
    relay are lost; that window is the recovery latency E15 measures. *)

type t

val create :
  ?quarantine_s:float ->
  topo:Mtopo.t ->
  arbor:Arbor.t ->
  engine:Tango_sim.Engine.t ->
  gossip:Gossip.t ->
  unit ->
  t
(** Hellos go every 25 ms and a neighbor is dead after 100 ms of
    silence; these are constants. A first
    quarantine lasts [quarantine_s] (default 2 s), doubling per
    episode, capped at 60 s. Raises {!Err.Invalid} when [quarantine_s]
    is not positive, NaN included. *)

val start_hellos : t -> until:float -> unit
(** One hello timer per PoP. Hellos are stamped directly into the
    neighbor's hearing slot with the link latency added — no per-hello
    event, so a 128-PoP mesh stays at tens of engine events per virtual
    second. *)

val set_on_deliver : t -> (flow:int -> seq:int -> tree:int -> now:float -> unit) -> unit

val send :
  t -> src:int -> flow:int -> seq:int -> hops:int array -> seg_paths:int array -> count:int -> unit
(** Encode a stitched route ([hops.(count-1)] is the destination) into
    a fresh frame and forward it from [src]. Raises {!Err.Invalid} when
    [count] is outside [1, {!Segment.max_segments}]. *)

val pop_alive : t -> int -> bool
(** Ground truth (not any PoP's local view). *)

val kill_pop : t -> pop:int -> unit
val revive_pop : t -> pop:int -> unit

val cut_region : t -> region:int -> unit
(** Take down every inter-region link touching [region], both
    directions. *)

val heal_region : t -> region:int -> unit

val detection_ms_after : t -> pop:int -> after:float -> float
(** Milliseconds after [after] until the {e slowest} live neighbor of
    [pop] flipped its hello view to dead; [-1] when none has. *)

val sent : t -> int
val delivered : t -> int
val dropped : t -> int

val reroutes : t -> int
(** Arborescence rotations performed (stack-to-arbor flips plus dead
    trees skipped). *)

val max_rotations : t -> int
(** Worst-case dead-tree probes for a single forwarding decision —
    bounded by [Arbor.k]; the E15 constant-work gate. *)

val discovery_msgs : t -> int
val note_discovery : t -> unit
(** Route-stitch accounting: {!Mesh} notes each stitched-route
    computation; the counter must not move after a failure. *)

val hello_msgs : t -> int

val fingerprint : t -> string
(** FNV-1a fold of the delivery stream (flow, seq, tree, residual hop
    budget, microsecond delivery time, and — only when attestation is
    on — the verdict code) — byte-identical across repeats of a seeded
    run, and with attestation off byte-identical to the pre-attest
    fingerprint. *)

(** {1 Verifiable forwarding (attestation)} *)

val set_attest : t -> Attest.t -> unit
(** Turn attestation on: every {!send} stamps {!Segment.flag_attest}
    and seeds the per-hop digest chain, every forwarding relay folds
    into it, and the destination judges each non-excused delivery
    against the routes committed in the verifier. *)

val attest_rejected : t -> int
(** Frames refused at the destination on a bad verdict — counted here,
    in neither {!delivered} nor {!dropped}. *)

val attest_excused : t -> int
(** Attested frames delivered unjudged because arborescence failover
    re-steered them off their committed route (DESIGN.md §15 caveat). *)

val verdict_count : t -> Attest.verdict -> int
(** Judged deliveries per verdict (includes [Verified]). *)

val first_verdict_s : t -> float
(** Virtual time of the first bad verdict; [nan] while none. *)

(** {2 Quarantine} *)

val quarantines : t -> int
(** Quarantine episodes applied so far. *)

val readmissions : t -> int
(** Quarantined relays readmitted after serving their backoff. *)

val ever_quarantined : t -> pop:int -> bool
(** Whether [pop] has served any quarantine episode this run. *)

(** {2 Fault injection: relay misbehavior} *)

type misbehavior =
  | Honest
  | Detour  (** Fold a neighbor off the route; burn an extra hop. *)
  | Forge  (** Garble the evidence chain after folding. *)
  | Truncate  (** Short-cut the route tail through the underlay. *)
  | Replay  (** Re-inject a captured transit frame every 100 ms. *)

val set_misbehavior : ?until:float -> t -> pop:int -> misbehavior -> unit
(** Arm (or clear, with [Honest]) misbehavior on [pop]. [until] bounds
    the [Replay] re-injection timer (pass the fault's end time; default
    unbounded). Raises {!Err.Invalid} on a bad pop id. *)
