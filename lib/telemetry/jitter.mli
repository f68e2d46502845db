(** The paper's sub-second jitter metric: the {e mean} standard deviation
    of a 1 s rolling window over the one-way-delay stream (§5: GTT ≈
    0.01 ms vs Telia ≈ 0.33 ms on LA→NY). *)

type t

val of_ring : Rolling.ring -> t
(** A 1 s window over the ring from its next sample; the {!recent}
    estimate is an EWMA with weight 0.01 per sample. *)

val create : unit -> t
(** {!of_ring} over a ring of its own. *)

val update : t -> unit
(** Take the ring's next sample and fold the window's stddev into the
    running mean: once per {!Rolling.push}. Allocates only the boxed
    stddev. *)

val add : t -> time:float -> float -> unit
(** {!Rolling.push} one OWD sample onto the ring, then {!update}. *)

(* test-hook: test/test_telemetry.ml *)
val count : t -> int
(** Samples in the 1 s window. *)

val value : t -> float
(** Mean rolling-window stddev so far; [nan] before any sample. This is
    the paper's reporting metric, averaged over the whole trace. *)

val recent : t -> float
(** EWMA-smoothed rolling-window stddev — a {e live} jitter estimate
    that rises within seconds of an instability episode and decays after
    it. This is what adaptive policies should consume; [nan] before any
    sample. *)
