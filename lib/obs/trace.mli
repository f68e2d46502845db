(** Fixed-capacity ring buffer of packed event records — a bounded
    flight recorder of what the system actually did during a run.

    Each record is (virtual time, kind tag, two int payloads), striped
    across flat arrays: {!record} writes four slots and allocates
    nothing. When the ring is full, the newest record overwrites the
    oldest and {!dropped} advances. Recording shares the process-wide
    switch of {!Metric.set_enabled} and is a no-op while it is off. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] makes a ring of [capacity] records (default 65536).
    Raises [Invalid_argument] when [capacity < 1]. *)

val default : t
(** The process-wide flight recorder the instrumented subsystems write
    into; exporters snapshot it alongside the metric registry. *)

(** {1 Kinds (cold path)} *)

val kind : string -> int
(** [kind name] mints (or looks up) the dense int tag for an event
    kind. Register kinds at module-init time and keep the tag. *)

val kind_name : int -> string
(** Inverse of {!kind}. Raises [Invalid_argument] on unknown tags. *)

(** {1 Recording (hot path, allocation-free)} *)

val record : t -> now:float -> kind:int -> int -> int -> unit
(** [record t ~now ~kind a b] appends one event record. O(1), no
    allocation, overwrites the oldest record once the ring is full. *)

(** {1 Read side (cold path)} *)

val dropped : t -> int
(** Records overwritten after wraparound. *)

val recorded : t -> int
(** Total records ever written: the live records plus {!dropped}. *)

val iter :
  t -> (time:float -> kind:int -> a:int -> b:int -> unit) -> unit
(** Visit live records oldest-first. *)

val clear : t -> unit
(** Empty the ring and zero the drop counter. *)
