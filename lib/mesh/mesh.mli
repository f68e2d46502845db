(** Tango-of-N orchestration: one engine hosting an N-PoP relay mesh.

    [run] builds a seeded world ({!Mtopo} topology, {!Arbor}
    arborescences, {!Gossip} membership, {!Relay} dataplane), stitches
    per-pair discovered segments into multi-hop source routes for a
    deterministic set of flows, arms mesh-level fault specs
    ([Relay_kill], [Mesh_partition], and the Byzantine-relay kinds
    [Relay_detour] / [Relay_tamper] / [Relay_replay]) from
    {!Tango_faults.Spec}, and returns a flat metrics record. Identical
    parameters give a byte-identical {!result.fingerprint}.

    With [~attest:true] the {!Attest} verifier is wired in: sources
    stamp per-hop digest chains, destinations judge every non-excused
    delivery against the committed routes, and bad verdicts feed the
    {!Relay} quarantine machinery (E17). *)

type result = {
  pops : int;
  edges : int;  (** undirected *)
  trees : int;
  diversity : float;  (** realized arborescence disjointness, 0-1 *)
  flows : int;
  sent : int;
  delivered : int;
  dropped : int;
  reroutes : int;
  max_rotations : int;  (** worst single-decision tree probes; O(1) gate *)
  killed : int;  (** relay-kill target, -1 when none *)
  affected_flows : int;
  detect_ms : float;  (** slowest neighbor hello timeout, -1 n/a *)
  recovery_ms : float;  (** slowest affected flow re-delivery, -1 n/a *)
  unrecovered : int;
  discovery_after_fault : int;  (** stitches after fault onset; must be 0 *)
  gossip_msgs : int;
  hello_msgs : int;
  convergence_ms : float;  (** membership convergence on the death, -1 n/a *)
  distinct_digests : int;  (** 1 = live views converged at end *)
  attest : bool;  (** attestation on for this run *)
  misbehaving : int;  (** armed Byzantine relay, -1 when none *)
  rejected : int;  (** bad-verdict rejections at destinations *)
  wrong_path : int;  (** judged frames per verdict *)
  truncated : int;
  replayed : int;
  forged : int;
  excused : int;  (** attested frames delivered unjudged (arbor failover) *)
  first_verdict_ms : float;  (** fault onset to first bad verdict, -1 n/a *)
  quarantines : int;
  readmissions : int;
  quarantined_target : bool;  (** the armed relay served a quarantine *)
  false_quarantines : int;  (** ever-quarantined pops besides the target *)
  fingerprint : string;
}

val run :
  ?pops:int ->
  ?degree:int ->
  ?trees:int ->
  ?seed:int ->
  ?flows:int ->
  ?duration_s:float ->
  ?pkt_interval_s:float ->
  ?specs:Tango_faults.Spec.t list ->
  ?attest:bool ->
  ?quarantine_s:float ->
  ?suspect_threshold:int ->
  unit ->
  result
(** Defaults: 16 PoPs, degree 4, 3 trees, seed 42, [min (2 * pops) 128]
    flows, 12 s horizon, one packet per flow per 20 ms, attestation off
    (first quarantine 2 s, suspicion threshold 4 when on). Flows start
    at 0.5 s (staggered 1 ms apart). Raises {!Err.Invalid} for a
    pairwise fault kind in [specs] (arm those through
    {!Tango_faults.Inject}), a fault window that does not close before
    [duration_s], or out-of-range parameters (a NaN duration, packet
    interval or quarantine among them). A [Relay_kill] or
    Byzantine-relay spec's [path] field picks the target PoP; 0
    auto-selects the busiest relay (most stitched routes transiting it,
    ties to the lowest id). *)
