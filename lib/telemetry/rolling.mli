(** Rolling time-window statistics over a live stream.

    Maintains mean/stddev/extrema of the samples whose timestamps lie
    within the trailing window, in O(1) amortized per sample. Samples
    live in a flat ring buffer (two unboxed float arrays), so the
    steady-state per-sample path allocates nothing. This is the
    primitive behind the paper's jitter metric ("the mean standard
    deviation of a 1-second rolling window", §5). *)

type t

val create : window_s:float -> t
(** Raises [Invalid_argument] on a non-positive window. *)

val add : t -> time:float -> float -> unit
(** Feed a sample; samples older than [time - window] are evicted.
    Times must be non-decreasing. *)

val count : t -> int
val mean : t -> float
(** [nan] when the window is empty. *)

val stddev : t -> float
(** Population stddev of the current window; [0.] with < 2 samples. *)

val min_value : t -> float
(** Smallest sample currently in the window, tracked incrementally by a
    monotonic wedge — O(1) per read, O(1) amortized per sample.
    [infinity] when empty. *)

val max_value : t -> float
(** Largest sample currently in the window; same cost model as
    {!min_value}. [neg_infinity] when empty. *)
