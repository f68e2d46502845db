(** Verifiable forwarding: per-hop digest chains over stitched routes.

    Each forwarding relay folds [(hop id, tree id, post-decrement TTL)]
    into a running FNV-1a chain carried in the segment header's attest
    field ({!Segment.flag_attest}); the receiving PoP recomputes the
    chain of the route it committed to at stitch time and classifies
    any mismatch into a typed verdict. The chain is evidence, not
    cryptography — see DESIGN.md §15 for the threat model — but it
    detects every modeled relay misbehavior deterministically at zero
    per-packet allocation.

    The verifier state is preallocated at creation: the hot entry
    points ({!chain_seed}, {!fold_hop}, {!check}, {!judge}) touch no
    heap beyond the amortized growth of the per-flow replay bitsets. *)

type verdict =
  | Verified  (** Chain equals the committed fold. *)
  | Wrong_path
      (** TTL shows more physical hops than the route has — the packet
          transited PoPs not on the committed path. *)
  | Truncated
      (** Chain matches a proper prefix of the committed fold, or the
          TTL shows fewer hops than committed: a relay short-cut the
          tail. *)
  | Replayed  (** (flow, seq) was already delivered. *)
  | Forged
      (** Same-length route but evidence no honest fold explains. *)

val verdict_code : verdict -> int
(** Stable small-int encoding (0..4), mixed into delivery fingerprints. *)

type t

val create : ?suspect_threshold:int -> pops:int -> flows:int -> unit -> t
(** Verifier for a [pops]-relay mesh carrying [flows] flows.
    [suspect_threshold] (default 4) is how many unlocalized bad
    verdicts an intermediate accumulates before {!suspicion} marks it
    quarantinable. *)

val suspect_threshold : t -> int

val commit : t -> flow:int -> src:int -> hops:int array -> count:int -> unit
(** Record the committed route for [flow]: [src] plus the stitched
    entries [hops.(0 .. count-2)] ([count] entries, destination last)
    — the out-of-band commitment exchange done at stitch time. *)

val route_len : t -> flow:int -> int
(** Forwarding relays committed for [flow] (0 = no commitment). *)

val route_hop : t -> flow:int -> i:int -> int
(** [i]-th forwarding relay of the committed route (0 = source). *)

val chain_seed : flow:int -> seq:int -> src:int -> dst:int -> int
(** Per-packet chain seed, derived from the flow tuple so replayed or
    re-addressed evidence never transplants. *)

val fold_hop : int -> hop:int -> tree:int -> ttl:int -> int
(** One relay's fold: mix [(hop, tree, ttl)] into the running chain. *)

val check : t -> Segment.stack -> bool
(** Pure chain check: recompute the full committed fold for the frame's
    flow and compare — the dominant per-packet verify cost (benched as
    [attest.verify]). *)

val judge : t -> Segment.stack -> verdict
(** Classify a delivered frame. Stateful: marks [(flow, seq)] seen, so
    judging the same frame twice yields [Replayed]. Frames for
    uncommitted flows are [Verified] (nothing to check against); a
    flow id outside the verifier's universe or a seq past the replay
    window is [Forged] — no honest source produces either, and the
    check is total on arbitrary decoded headers (it never raises).
    Then culprit handling: localizes Truncated/Wrong_path
    evidence (see {!last_culprit}) and bumps route-intermediate
    suspicion on unlocalizable bad verdicts. Clean deliveries do {e
    not} exonerate — a replaying relay's original traffic still
    verifies, so a verified-resets-suspicion rule would let it clear
    itself forever. *)

val last_culprit : t -> int
(** PoP the last {!judge} localized blame to, or [-1] when the
    evidence names none (Verified, Replayed, Forged, or an
    unlocalizable Truncated/Wrong_path chain). *)

val suspicion : t -> pop:int -> int
(** Accumulated unlocalized bad verdicts over routes through [pop].
    Crossing {!suspect_threshold} makes the relay quarantine it — an
    over-approximation by design; quarantine is reversible with
    backoff, never permanent. *)

val reset_suspicion : t -> pop:int -> unit
(** Consume [pop]'s suspicion (done at quarantine time, so a readmitted
    pop must re-offend from zero). *)
