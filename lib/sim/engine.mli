(** Discrete-event simulation engine.

    The engine owns a virtual clock (in seconds, as a float) and a pending
    event queue. Callbacks scheduled for the same instant fire in FIFO
    order of scheduling, which keeps runs fully deterministic. Every run
    also owns a root {!Rng.t}; subsystems should {!Rng.split} from it so
    that adding a new consumer does not perturb existing streams.

    The queue is a 4-ary min-heap over (time, scheduling order) held in
    flat parallel arrays: unboxed times, sequence numbers, and the slot
    where each callback is stored once. Scheduling and firing an event
    allocate no event record; a steady-state {!schedule} plus {!step}
    costs only the boxed [~delay] argument and the boxed clock. A fired
    callback's slot is cleared, so the queue keeps no fired closure
    alive. *)

type t

val create : ?seed:int -> ?heap_capacity:int -> unit -> t
(** [create ~seed ()] builds an engine with its clock at [0.0]. The
    default seed is [42]. [heap_capacity] pre-sizes the queue's arrays
    (at least 8 entries); pass the expected number of concurrently
    pending events when one engine hosts a whole mesh of PoPs (see
    {!Tango_mesh}). A full queue doubles all its arrays together. A
    negative [heap_capacity] raises [Invalid_argument]. *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Rng.t
(** The engine's root generator. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]. A negative or NaN
    delay raises [Invalid_argument]. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at absolute virtual [time]. A [time]
    before [now t], or NaN, raises [Invalid_argument]. *)

val every : t -> interval:float -> ?until:float -> (t -> unit) -> unit
(** [every t ~interval ?until f] runs [f] now and then every [interval]
    seconds, stopping once the clock would pass [until] (if given). An
    [interval] that is not positive, or NaN, raises [Invalid_argument]. *)

val pending : t -> int
(** Number of queued events. *)

val step : t -> bool
(** Execute the single earliest event. Returns [false] when the queue was
    empty (and the clock did not move). The event leaves the queue and
    the clock moves before its callback runs, so a callback that raises
    leaves its event already removed. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue. [until] stops the clock at that time (events beyond
    it stay queued); [max_events] bounds the number of callbacks executed,
    guarding against runaway feedback loops. An [until] before [now t],
    or NaN, raises [Invalid_argument]: the clock never moves back. *)

val cancel_all : t -> unit
(** Drop every queued event. *)
