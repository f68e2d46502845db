(** Multicore batched dataplane throughput (DESIGN.md §11, experiment
    E14).

    Runs the full per-packet path — flow-cache path decision, Tango
    encapsulation, batched fabric forwarding, decapsulation, sequence
    tracking — over a deterministic multi-path workload, flow-sharded
    across OCaml 5 domain lanes ({!Tango_sim.Shard}). Each lane folds
    the arrivals it drains into an order-insensitive fingerprint and
    per-path counts and delay sums; the lanes' partials are added up
    after they are joined. Seeded runs produce identical delivered-packet
    fingerprints and identical loss/reorder totals at {e any} domain
    count and batch size; only the wall-clock/pps figures vary. *)

type result = {
  domains : int;
  batch : int;  (** Flush threshold used, in [1, Batch.capacity]. *)
  flows : int;
  generations : int;
  offered : int;  (** Packets put on the wire (scheduled sends). *)
  delivered : int;
  synthetic_drops : int;  (** Deterministic pre-fabric loss. *)
  lost : int;  (** Summed per-flow tracker losses. *)
  reordered : int;
  duplicates : int;
  cache_hits : int;
  cache_misses : int;
  cache_capacity : int;
      (** Per-lane flow-cache bound; 0 = none given, so the cache is sized
          to the flow count and never evicts. *)
  cache_evictions : int;  (** Clock-hand victims, summed over lanes. *)
  cache_resident : int;  (** Cached entries at quiesce, summed over lanes. *)
  tracker_active : int;  (** Trackers that saw traffic, summed over lanes. *)
  tracker_resident : int;  (** Provisional-missing entries at quiesce. *)
  tracker_resident_peak : int;
      (** Sum of per-lane resident high-water marks — an upper bound on
          the true process-wide peak. *)
  tracker_ceiling : int;  (** Per-lane advisory bound; 0 = none. *)
  tracker_idle_gens : int;  (** Tracker aging horizon; 0 = off. *)
  tracker_evictions : int;
      (** Idle trackers expired by generation sweeps, summed over
          lanes. *)
  path_delivered : int array;  (** Deliveries per path id. *)
  path_owd_ms : float array;
      (** Mean one-way delay per path id. Each lane sums its own
          arrivals' delays and the lane sums are added in lane order, so
          at more than one domain the last bits can depend on the lane
          count (never on scheduling). *)
  merged : int;
      (** Records the lanes folded into the fingerprint (= delivered). *)
  fingerprint_sum : int;
  fingerprint_xor : int;
  wall_s : float;  (** Wall time of the parallel phase only. *)
  pps : float;  (** offered / wall_s. *)
  minor_words_per_packet : float;
      (** Minor-heap words allocated inside the lanes' generation loops,
          per offered packet, read on each lane's own domain with
          [Gc.minor_words] — the steady-path allocation gate. The packet
          path allocates nothing; what remains is the trackers' sets of
          missing sequence numbers, which change only on loss and
          reordering, and a few words per generation. *)
  major_words_per_packet : float;
      (** Major-heap words allocated inside the lanes' generation loops,
          per offered packet, read on each lane's own domain with
          [Gc.counters]. *)
}

val run :
  ?domains:int ->
  ?batch:int ->
  ?flows:int ->
  ?generations:int ->
  ?seed:int ->
  ?plan:Tango_workload.Load.plan ->
  ?cache_capacity:int ->
  ?tracker_ceiling:int ->
  ?tracker_idle_gens:int ->
  unit ->
  result
(** Defaults: 1 domain, batch 64, 512 flows, 2000 generations, seed 42.
    Builds one independent world (star topology, converged BGP tables,
    fabric) per lane on the main domain, then runs the lanes in
    parallel — lane 0 on the calling domain, one more domain per extra
    lane — and adds up their partial results. Raises [Failure] if any
    packet left the batched
    direct path (the pipeline's zero-fallback invariant), and
    [Invalid_argument] for out-of-range parameters ([batch] must lie in
    [1, 64]).

    [plan] swaps the uniform full-mesh workload for a
    {!Tango_workload.Load} schedule ([flows] and [generations] are then
    taken from the plan) over a tighter path-delay ladder (1.0–1.9 ms)
    whose default-over-best ratio reproduces E2's ~30% gap.
    [cache_capacity] bounds each lane's flow cache (clock-hand
    eviction); [tracker_ceiling] is the per-lane advisory bound on
    resident tracker state; [tracker_idle_gens] (default 0 = off)
    expires trackers whose flow has been idle for more than that many
    generations, freeing their provisional state
    ({!Tango_dataplane.Seq_tracker.Table.advance_generation}). *)

val fingerprint : result -> string
(** Printable order-insensitive digest of every delivered packet record
    (identical across domain counts and batch sizes for a fixed seeded
    workload). *)

val print_summary : ?timing:bool -> result -> unit
(** Print the run to stdout. The leading lines are deterministic for a
    seeded workload; [timing] (default true) appends the
    wall-clock/domains/pps line — pass [false] for byte-comparable
    output (the CLI's [--fingerprint] mode). *)

val default_over_best : result -> float
(** Mean one-way delay on path 1 (the BGP-default route of the load
    topology) over path 0 (the best cooperative route) — the E2
    policy-quality ratio as measured under load; [0.] when path 0 saw
    no traffic. *)

val hit_rate : result -> float
(** Flow-cache [hits / (hits + misses)]; [0.] before any lookup. *)

val print_load_summary : ?timing:bool -> Tango_workload.Load.plan -> result -> unit
(** Load-engine report: workload composition, delivery/loss totals,
    cache and tracker residency, per-path delivery + mean one-way
    delay, the policy-quality ratio, and the fingerprint. Everything
    above the [timing] line is deterministic for a fixed
    (plan, domains). *)
