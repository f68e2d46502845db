(** Per-tunnel loss and reordering detection from the Tango sequence
    numbers (§3: "tunnel-specific sequence numbers on packets can allow
    Tango to additionally compute loss and reordering"). *)

type t

val create : unit -> t

val observe : ?now_s:float -> t -> int64 -> unit
(** Feed the sequence number of an arriving packet. A gap is counted as
    provisional loss; a late arrival of a previously-missing number
    converts the loss into a reordering; a second arrival of a delivered
    number counts as a duplicate. Each event also feeds the obs layer
    (counters plus trace records stamped [now_s]; the tracker itself is
    clockless, so callers without a clock may omit it). *)

val recent_loss_rate : t -> float
(** EWMA of the per-packet loss indicator — a {e live} estimate that
    climbs within tens of packets of a loss episode and decays
    afterwards (reorder heals are credited back). Feeds failover
    policies. *)

(** A dense keyed population of trackers with O(1) aggregate accounting
    of active keys and resident provisional state — the structure the
    million-flow load engine keeps per dataplane lane (DESIGN.md §14).
    Callers bound the resident peak by pruning with {!confirm_below} as
    flows advance, and check {!resident_peak} against their ceiling. *)
module Table : sig
  type tracker = t

  type t

  val create : ?ceiling:int -> ?idle_generations:int -> keys:int -> unit -> t
  (** A table of [keys] fresh trackers. [ceiling] is only validated:
      the table reads it nowhere, its callers check {!resident_peak}
      against their own copy. [idle_generations] (default [0] = aging
      off) is the expiry
      horizon for {!advance_generation}: a tracker not observed for
      more than that many whole generations is evicted. Raises
      {!Err.Invalid} when any is negative. *)

  val observe_int : t -> key:int -> int -> unit
  (** {!Seq_tracker.observe} on the keyed tracker, with a native-int
      sequence number, updating the active and resident aggregates. It
      allocates only when the provisional-missing set changes (a gap or
      a late arrival), and its trace records carry time 0 — the lanes
      that call it run with the obs registry frozen, which drops them.
      Raises {!Err.Invalid} for a negative sequence. *)

  val observe : ?now_s:float -> t -> key:int -> int64 -> unit
  (** {!observe_int} for a wire-width sequence number, range-checked to
      [0, max_int] like {!Seq_tracker.observe}, with its trace records
      stamped [now_s]. *)

  val confirm_below_int : t -> key:int -> int -> unit
  (** Declare every still-missing sequence of the keyed tracker strictly
      below the native-int bound permanently lost: pruned from its
      provisional set (bounding its size, like the fixed-size map a real
      switch keeps, and crediting the entries back to the resident
      aggregate) while still counting in {!lost_total}. Only call with
      bounds the reordering horizon can no longer reach — a late
      arrival of a confirmed sequence counts as a duplicate. Cost is one
      load when nothing is provisionally missing. Raises {!Err.Invalid}
      for a negative bound. *)

  val confirm_below : t -> key:int -> int64 -> unit
  (** {!confirm_below_int} for a wire-width bound, range-checked to
      [0, max_int]. *)

  val advance_generation : t -> int
  (** Close the current generation and open the next, returning its
      number. With [idle_generations > 0] this also sweeps the table:
      every tracker whose last observation is more than
      [idle_generations] generations old is {e evicted} — its
      provisional-missing set is freed (the entries count as confirmed
      losses; they can no longer heal into reorderings) and credited
      back to {!resident}, and its next observation re-anchors on the
      arriving sequence instead of counting the idle gap as loss. The
      sweep is O(keys); call it at generation cadence, not per packet.
      With [idle_generations = 0] only the generation number advances. *)

  val evictions : t -> int
  (** Trackers expired by {!advance_generation} sweeps so far. *)

  val active_keys : t -> int
  (** Trackers that have observed at least one packet. *)

  val resident : t -> int
  (** Total provisional-missing entries across all trackers now. *)

  val resident_peak : t -> int
  (** High-water mark of {!resident} over the table's lifetime. *)

  (* test-hook: test/test_load.ml *)
  val received_total : t -> int
  (** Arrivals that were neither duplicates nor below a confirmed bound,
      summed over the keys: the count the differential tests hold the
      table to against a reference model. *)

  val lost_total : t -> int
  (** Sequence numbers missing — gaps never filled, plus everything
      confirmed by {!confirm_below} — summed over the keys. *)

  val reordered_total : t -> int
  val duplicates_total : t -> int
end
