(** Discrete-event simulation engine.

    The engine owns a virtual clock (in seconds, as a float) and a pending
    event queue. Callbacks scheduled for the same instant fire in FIFO
    order of scheduling, which keeps runs fully deterministic. Every run
    also owns a root {!Rng.t} seeded from the run's seed.

    The queue is a calendar queue over (time, scheduling order): each
    pending event owns a slot in flat columns (unboxed time, sequence
    number, bucket day, bucket neighbours) and its callback is stored
    once. An event's day is its time divided by the bucket width; a
    power-of-two array of buckets holds each day's events in bucket
    [day mod buckets], as a list sorted by (time, scheduling order).
    Scheduling walks back from its bucket's tail and firing scans
    forward from the current day, both O(1) steps on average. The
    bucket width is measured, not configured: it is twice the mean gap
    between recent fires, or between the pending events while the
    queue fills. It changes only what a pop costs, never which event
    fires. Scheduling and firing an event allocate no event record; a
    steady-state {!schedule} plus {!step} costs only the boxed
    [~delay] argument and the boxed clock. A fired callback's slot is
    cleared, so the queue keeps no fired closure alive. *)

type t

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds an engine with its clock at [0.0]. The
    default seed is [42]. The queue starts with 512 slots and 512
    buckets and doubles both whenever every slot holds a pending event,
    so it sizes itself from the pending count it actually holds. *)

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

(* test-hook: test/test_sim.ml *)
val pending : t -> int
(** Number of queued events: what the engine oracle compares. *)

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
