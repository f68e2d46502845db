(** The paper's sub-second jitter metric: the {e mean} standard deviation
    of a rolling window (1 s by default) over the one-way-delay stream
    (§5: GTT ≈ 0.01 ms vs Telia ≈ 0.33 ms on LA→NY). *)

type t

val create : ?window_s:float -> ?recent_alpha:float -> unit -> t
(** Default window: 1 s, as in the paper. [recent_alpha] smooths the
    {!recent} estimate (default 0.01 per sample). *)

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
