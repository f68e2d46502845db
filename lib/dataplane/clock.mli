(** Per-switch hardware clocks.

    The paper's one-way-delay measurement deliberately tolerates
    unsynchronized clocks: each switch stamps packets with its own clock
    and the receiver subtracts with its own, so every OWD is shifted by
    the same constant offset and {e relative} comparisons across paths
    remain exact. This module models that: a clock is the virtual time
    plus a constant offset. It does not drift. *)

type t

val create : ?offset_ns:int64 -> unit -> t
(** [offset_ns] is the constant skew versus true (virtual) time. *)

val now_ns : t -> sim_time_s:float -> int64
(** Clock reading when the simulation clock shows [sim_time_s]. *)

val offset_ns : t -> int64

val step : t -> step_ns:int64 -> t
(** [step t ~step_ns] is [t] with its constant offset shifted by
    [step_ns] — an NTP-style clock step. Relative OWD comparison is
    supposed to survive these; the fault engine uses them to prove it
    (and to stress {!Seq_tracker}'s clockless design). *)
