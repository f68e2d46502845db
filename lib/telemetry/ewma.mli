(** Exponentially weighted moving average — the smoothing used by the
    adaptive routing policies. *)

type t

val create : alpha:float -> t
(** [alpha] in (0, 1]: weight of each new sample. *)

val add : t -> float -> unit
val value : t -> float
(** Current average; [nan] before the first sample. *)

