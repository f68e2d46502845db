(** Flow-sharded domain lanes with a deterministic merge (DESIGN.md §11).

    The multicore dataplane partitions flows across [lanes] lanes by
    flow hash, one OCaml 5 domain per lane. Each lane owns its state
    outright (no locks on the packet path) and emits flat timestamped
    result records into a preallocated single-producer/single-consumer
    ring; a single reducer then drains all rings in (virtual-time,
    lane-id, ring-position) order. Because that order is a pure
    function of the records — never of OS scheduling — seeded runs are
    byte-reproducible at any domain count. *)

val lane_of_hash : lanes:int -> int -> int
(** Which lane owns a flow hash: [(hash land max_int) mod lanes], so
    every packet of a flow lands on the same lane at a fixed lane count.
    Raises [Invalid_argument] when [lanes <= 0]. *)

(** Preallocated SPSC result ring over flat arrays: one float timestamp,
    three int fields and one float value per record, stored unboxed.
    Exactly one domain may push and one domain may pop. *)
module Ring : sig
  type t

  val create : capacity:int -> t
  (** Capacity is rounded up to a power of two. Raises
      [Invalid_argument] when non-positive. *)

  val capacity : t -> int
  val is_empty : t -> bool

  val push : t -> time:float -> a:int -> b:int -> c:int -> v:float -> unit
  (** Publish one record. The ring does not block: the caller sizes it
      for the workload (one slot per record it will ever push), and
      overflow raises [Invalid_argument]. The ring itself stores flat,
      but a call from another module passes [~time] and [~v] boxed
      (dune builds with [-opaque], so nothing is inlined across
      modules): 4 minor words per record unless the floats were
      already boxed. {!scatter} publishes from columns without
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
(** [scatter rings ~time ~a ~b ~c ~v n] publishes records [0, n) of the
    columns in order, record [i] onto [rings.(c.(i))] — how a lane's
    decap fills its per-path rings. Floats move array to array, so
    nothing is boxed. Raises [Invalid_argument] when a ring is full. *)

val drain_into :
  Ring.t array -> upto:float -> out:Ring.t -> a:int array -> b:int array -> int
(** The in-lane merge of per-path rings, each already in time order:
    pop every record with time [<= upto] in (time, b, ring-index) order
    — equal times resolve to the smaller [b], then to the lower ring —
    moving each onto [out] and copying its [a] and [b] into the columns,
    until the columns are full or no such record is left. Returns the
    count moved. Allocates nothing. *)

type record = {
  mutable time : float;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable v : float;
}
(** Reducer-side scratch, reused for every record {!pop_into} reads. It
    is a mixed record, so storing [time] and [v] boxes them: 4 minor
    words per record, which {!merge} pays for every record it hands to
    [consume]. *)

val scratch : unit -> record

val pop_into : Ring.t -> record -> unit
(** Consume the oldest record into the scratch (4 minor words, see
    {!record}). Raises [Invalid_argument] on an empty ring. *)

val merge : Ring.t array -> consume:(lane:int -> record -> unit) -> unit
(** Drain every ring in (time, lane-id, ring-position) order — the
    deterministic k-way merge. Ties on time resolve to the lowest lane
    id; records of one lane keep their emission order. *)

val run :
  lanes:int ->
  capacity_of:(lane:int -> int) ->
  lane:(lane:int -> Ring.t -> unit) ->
  consume:(lane:int -> record -> unit) ->
  unit
(** Run [lane] once per lane against its own ring — lane 0 on the
    calling domain, every other lane on a domain of its own, so [lanes]
    lanes use [lanes] domains — join them all (the quiesce point
    publishing every lane's state), then {!merge} the rings through
    [consume]. Every spawned lane is joined even when a lane raises;
    the first exception (the caller's lane first, then by lane id) is
    re-raised after the joins, and nothing is merged. [capacity_of]
    must cover every record the lane will push — rings do not block,
    they raise. *)
