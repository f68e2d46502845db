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

val owd_ms : t -> now_s:float -> stamp_ns:int64 -> float
(** The receiver's one-way-delay reading: {!now_ns} at virtual time
    [now_s] minus the sender's stamp [stamp_ns], in milliseconds, in one
    call that boxes only the result. *)

val owd_ms_into :
  t -> stamp_ns:int -> float array -> into:float array -> int -> unit
(** [owd_ms_into t ~stamp_ns arrival_s ~into n] is the batch form of
    the receiver's one-way-delay reading: for each [i < n], [into.(i)]
    gets {!now_ns} at virtual time [arrival_s.(i)] minus the sender's
    stamp [stamp_ns], in milliseconds. Nothing is boxed. *)

val step : t -> step_ns:int64 -> t
(** [step t ~step_ns] is [t] with its constant offset shifted by
    [step_ns] — an NTP-style clock step. Relative OWD comparison is
    supposed to survive these; the fault engine uses them to prove it
    (and to stress {!Seq_tracker}'s clockless design). *)
