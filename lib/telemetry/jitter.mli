(** The paper's sub-second jitter metric: the {e mean} standard deviation
    of a 1 s rolling window over the one-way-delay stream (§5: GTT ≈
    0.01 ms vs Telia ≈ 0.33 ms on LA→NY). *)

type t

val create : unit -> t
(** A 1 s window, as in the paper; the {!recent} estimate is an EWMA
    with weight 0.01 per sample. *)

val add : t -> time:float -> float -> unit
(** Feed one OWD sample; the current window stddev is folded into the
    running mean. *)

val value : t -> float
(** Mean rolling-window stddev so far; [nan] before any sample. This is
    the paper's reporting metric, averaged over the whole trace. *)

val recent : t -> float
(** EWMA-smoothed rolling-window stddev — a {e live} jitter estimate
    that rises within seconds of an instability episode and decays after
    it. This is what adaptive policies should consume; [nan] before any
    sample. *)
