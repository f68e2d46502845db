(** Per-packet path selection from live one-way measurements — the
    "logic for how a forwarding decision should be made based on path
    performance" of §3.

    Policies are stateful (hysteresis, dwell timers). The inputs are the
    per-path statistics the {e receiving} side measured and reported back
    (see {!Pop}); all values may be [nan] before measurements arrive, in
    which case policies fall back to the BGP-default path 0.

    Failover: the adaptive policies treat a path as unusable when its
    recent loss rate exceeds 0.25 or its statistics are staler than
    the staleness limit (1 s unless {!set_max_staleness_s} changes it;
    a silent blackhole produces no fresh samples at all). An unusable
    current path is evacuated immediately, bypassing hysteresis and
    dwell.

    Flap damping: with [readmit_backoff_s] > 0, a path that recovers
    after its [n]th failure is banned as a switch target for
    [readmit_backoff_s * 2^(n-1)] seconds (capped at 30 s),
    so a flapping path cannot drag the policy into oscillation. When
    {e every} path is unusable or banned, the policy enters a degraded
    mode: it pins the best-known path (lowest smoothed OWD ever
    reported, bans ignored) and holds it, raising one observability
    event per episode, until some path becomes usable again. *)

type path_stats = {
  path_id : int;
  owd_ewma_ms : float;  (** Smoothed one-way delay; [nan] if unmeasured. *)
  jitter_ms : float;  (** Live (EWMA) 1-s rolling stddev; [nan] if unmeasured. *)
  loss_rate : float;  (** Recent loss estimate in [0,1]. *)
  age_s : float;  (** Seconds since the newest sample behind these stats. *)
  samples : int;
}

val no_stats : path_id:int -> path_stats

type spec =
  | Bgp_default
      (** Always the provider's preferred path (path 0) — the status quo
          baseline. Never fails over. *)
  | Static of int  (** Pin one discovered path. Never fails over. *)
  | Lowest_owd of { hysteresis_ms : float; min_dwell_s : float }
      (** Chase the smallest smoothed OWD, switching only when the win
          exceeds [hysteresis_ms] and the current path has been held for
          [min_dwell_s]. *)
  | Jitter_aware of {
      beta : float;  (** Weight of jitter in the score: owd + beta*jitter. *)
      hysteresis_ms : float;
      min_dwell_s : float;
    }

val spec_to_string : spec -> string

type t

val create : ?readmit_backoff_s:float -> spec -> t
(** Default [readmit_backoff_s]: 0.0 (flap damping off). The backoff is
    capped at 30 s. Per-path damping/ban state is preallocated flat for
    64 paths so the scoring pass stays allocation-free (it is reachable
    from the [@hot] packet path); a path id of 64 or more raises
    [Invalid_argument]. Raises [Invalid_argument] on a negative
    backoff. *)

val set_max_staleness_s : t -> float -> unit
(** Tune dead-path detection: statistics older than this are treated as
    a silent blackhole. {!Pop.start} derives it from the probe interval
    ([dead_after_probes] missed probes). Raises [Invalid_argument] on a
    non-positive value. *)

val choose : ?age_extra:float -> t -> now_s:float -> path_stats array -> int
(** Select a path id for the next packet. [age_extra] (default 0) is
    added to every path's [age_s] during staleness checks — callers with
    a stats array cached [age_extra] seconds ago pass the elapsed time
    instead of copying the array with re-based ages (the zero-alloc form
    of {!Pop.live_outbound_stats}). Raises [Invalid_argument] on an
    empty stats array. *)

val current : t -> int

val retarget : t -> path:int -> unit
(** Force the current selection (not counted as a switch) — used when a
    path-table swap shrinks the table under the policy's feet. Raises
    [Invalid_argument] on a negative path id. *)

val switches : t -> int
(** Number of path changes so far (control-plane churn metric). *)

val degraded : t -> bool
(** Whether the policy is currently in the all-paths-degraded mode
    (pinned to the best-known path, waiting for any path to recover). *)

val degraded_episodes : t -> int
(** Number of distinct all-paths-degraded episodes entered so far. *)

val readmit_banned : t -> path:int -> now_s:float -> bool
(** Whether [path] is currently serving a ban (re-admission or
    external). *)

val ban : t -> path:int -> now_s:float -> for_s:float -> unit
(** Externally ban [path] as a switch target for [for_s] seconds from
    [now_s] — the reconciler's drain of a path that churn removed from
    the table, reusing the flap-damping ban machinery. Never shortens an
    existing ban. Honored even with [readmit_backoff_s = 0]; a policy
    never banned this way pays nothing. Raises [Invalid_argument] on a
    negative path id or non-positive duration. *)

val unban : t -> path:int -> unit
(** Lift any ban on [path] (no-op for unknown paths) — used when a
    drained path is re-installed after recovery. *)

(* test-hook: test/test_failover.ml *)
val fail_count : t -> path:int -> int
(** Consecutive-failure count backing [path]'s exponential backoff: the
    history the flap-damping tests read. *)
