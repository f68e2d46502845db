(** Control-plane reconciliation for a Tango pair (DESIGN.md §10).

    Discovery runs once at bring-up, but the underlay keeps moving: BGP
    churn withdraws tunnel-prefix routes, strips their communities or
    re-homes them onto different wide-area paths, silently invalidating
    the pair's path tables. The reconciler closes the loop, per
    direction:

    + {b Detect} — a {!Watch} over the peer site's tunnel prefixes,
      checked on a cadence {e and} after every BGP origin event
      (debounced), classifies each table entry Live / Moved / Gone.
    + {b Re-discover} — an epoch re-derives only the table suffix from
      the first non-Live index: the trusted prefix's suppression sets
      are replayed ({!Tango.Discovery.suppression_of}) and exploration
      resumes from there as an asynchronous announce → settle → observe
      loop on the engine (never a recursive converge). Each epoch runs
      under a hard BGP-message budget; a failed or truncated epoch
      retries after exponential backoff with jitter.
    + {b Swap} — the new table is installed atomically
      ({!Tango.Pop.install_outbound_paths}: new tunnels, flow-cache
      invalidation, epoch stamp), dead paths are drained via the
      policy's ban machinery, and the receiver re-announces its tunnel
      prefixes with the fresh suppression sets — which is what actively
      restores routes the churn tore down.
    + {b Pair control} — an in-band {!Channel} (heartbeats + table
      digests) detects peer loss, pins the survivor into unilateral
      mode, and triggers a full re-sync check on recovery.

    With no churn the reconciler only runs read-only checks: it sends no
    BGP updates and never touches the data plane. *)

type config = {
  cadence_s : float;  (** Periodic check interval. *)
  debounce_s : float;  (** Delay from a BGP origin event to its check. *)
  settle_s : float;
      (** Virtual time allowed for an announcement to propagate before
          observing. *)
  budget_msgs : int;  (** Hard per-epoch BGP message budget. *)
  iteration_cost_hint : int;
      (** Initial estimate of one origination's message cost (refined
          from observation as the epoch runs). *)
  backoff_base_s : float;
  backoff_max_s : float;
  jitter_frac : float;  (** Uniform jitter fraction on top of backoff. *)
  max_paths : int;
  drain_ban_s : float;  (** Ban length used to drain dead paths. *)
}

val default_config : config
(** cadence 1 s, debounce 0.2 s, settle 0.75 s, budget 600 messages,
    hint 40, backoff 1 s doubling to 30 s with 10% jitter, 16 paths,
    5 s drain. *)

type direction = To_ny | To_la
(** Direction of the {e data} the reconciled table carries (To_ny = the
    table LA uses toward NY, watched at LA, announced by NY). *)

val direction_to_string : direction -> string

type t

val arm :
  pair:Tango.Pair.t ->
  ?config:config ->
  ?seed:int ->
  ?with_channel:bool ->
  until_s:float ->
  unit ->
  t
(** Arm reconciliation on a live pair: snapshot watches, register the
    BGP origin listener, schedule cadence checks until [until_s]
    (absolute virtual time), and — unless [with_channel] is [false] —
    attach the in-band control channel ({!Channel.attach}: heartbeat
    every 0.1 s, peer timeout 0.5 s). [seed] feeds only the backoff
    jitter, so runs are reproducible. Raises [Invalid_argument] on a
    non-positive settle time or budget. *)

type dir_stats = {
  epochs : int;  (** Epochs started. *)
  failed : int;  (** Epochs that found no usable table at all. *)
  truncated : int;  (** Epochs cut short by the message budget. *)
  last_msgs : int;  (** BGP messages spent by the latest epoch. *)
  total_msgs : int;
  last_recovery_s : float;
      (** Duration of the latest successful epoch ([nan] before one). *)
  paths : int;  (** Current table size. *)
}

val stats : t -> direction -> dir_stats

val config : t -> config

val channel : t -> Channel.t option

val checks : t -> int
(** Churn checks run so far (cadence + event-driven). *)
