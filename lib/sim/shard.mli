(** Flow-sharded domain lanes (DESIGN.md §11).

    The multicore dataplane partitions flows across [lanes] lanes by
    flow hash, one OCaml 5 domain per lane. Each lane owns its state
    outright — its rings, its trackers and the partial results it folds
    — so the packet path takes no lock and no ring is ever read by a
    domain other than the one that fills it. {!run} joins every lane
    before it returns; the caller then adds up the lanes' partials.
    When the partials are commutative (sums, xors), the total is a pure
    function of the records, never of OS scheduling, so seeded runs are
    byte-reproducible at any domain count. *)

val lane_of_hash : lanes:int -> int -> int
(** Which lane owns a flow hash: [(hash land max_int) mod lanes], so
    every packet of a flow lands on the same lane at a fixed lane count.
    Raises [Invalid_argument] when [lanes <= 0]. *)

(** Preallocated FIFO record ring over flat arrays: one float
    timestamp, three int fields and one float value per record, stored
    unboxed. The cursors are plain ints, so a ring belongs to one
    domain at a time; hand it to another only across a [Domain.join]. *)
module Ring : sig
  type t

  val create : capacity:int -> t
  (** Capacity is rounded up to a power of two. Raises
      [Invalid_argument] when non-positive. *)

  val capacity : t -> int
  val is_empty : t -> bool

  val push : t -> time:float -> a:int -> b:int -> c:int -> v:float -> unit
  (** Append one record. The ring does not block: the caller sizes it
      for the workload (one slot per record it will ever hold), and
      overflow raises [Invalid_argument]. The ring itself stores flat,
      but a call from another module passes [~time] and [~v] boxed
      (dune builds with [-opaque], so nothing is inlined across
      modules): 4 minor words per record unless the floats were
      already boxed. {!scatter} appends from columns without
      boxing. *)

  val peek_time : t -> float
  (** Timestamp of the oldest unread record, [infinity] when empty. *)

  val peek_b : t -> int
  (** The [b] field of the oldest unread record, [max_int] when empty —
      the secondary merge key (sequence number) for consumers that
      tie-break equal timestamps. *)
end

val scatter :
  Ring.t array ->
  time:float array ->
  a:int array ->
  b:int array ->
  c:int array ->
  v:float array ->
  int ->
  unit
(** [scatter rings ~time ~a ~b ~c ~v n] appends records [0, n) of the
    columns in order, record [i] onto [rings.(c.(i))] — how a lane's
    decap fills its per-path rings. Floats move array to array, so
    nothing is boxed. Raises [Invalid_argument] when a ring is full. *)

val drain_into :
  Ring.t array ->
  upto:float ->
  time:float array ->
  a:int array ->
  b:int array ->
  c:int array ->
  v:float array ->
  int
(** The in-lane merge of per-path rings, each already in time order:
    pop every record with time [<= upto] in (time, b, ring-index) order
    — equal times resolve to the smaller [b], then to the lower ring —
    writing record [k] into slot [k] of the five columns, until the
    shortest column is full or no such record is left. Returns the
    count written; the caller drains again while that count equals the
    column length. Allocates nothing. Every record time must be finite
    (the heads are compared with inline float tests, under which a
    [nan] never compares smaller); the lanes guarantee it by failing
    the run on any direct-path fallback, the one source of [nan]
    arrivals. *)

type record = {
  mutable time : float;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable v : float;
}
(** Scratch for reading one record at a time, reused for every record
    {!pop_into} reads. It is a mixed record, so storing [time] and [v]
    boxes them: 4 minor words per record, which {!merge} pays for every
    record it hands to [consume]. The lanes fold from {!drain_into}'s
    columns instead. *)

val scratch : unit -> record

val pop_into : Ring.t -> record -> unit
(** Consume the oldest record into the scratch (4 minor words, see
    {!record}). Raises [Invalid_argument] on an empty ring. *)

val merge : Ring.t array -> consume:(lane:int -> record -> unit) -> unit
(** Drain every ring in (time, ring-index, ring-position) order — a
    deterministic k-way merge, for a consumer that needs one ordered
    stream rather than a commutative fold. Ties on time resolve to the
    lowest ring index, passed as [lane]; records of one ring keep
    their order. *)

val run : lanes:int -> lane:(lane:int -> unit) -> unit
(** Run [lane] once per lane — lane 0 on the calling domain, every
    other lane on a domain of its own, so [lanes] lanes use [lanes]
    domains — and join them all: the join is the happens-before edge
    that publishes every lane's state to the caller. Every spawned lane
    is joined even when a lane raises; the first exception (the
    caller's lane first, then by lane id) is re-raised after the
    joins. Raises [Invalid_argument] when [lanes <= 0]. *)
