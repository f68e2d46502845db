(** Rolling time-window statistics over a live stream: the primitive
    behind the paper's jitter metric ("the mean standard deviation of a
    1-second rolling window", §5).

    A stream's samples live once, in a {!ring} of two unboxed float
    arrays; a window is an index range into a ring with its own running
    sums, so several windows share each sample. Taking and evicting
    cost O(1) amortized per sample, and nothing is allocated once the
    ring has grown to its steady-state size. *)

type ring
(** Samples in time order, kept from the oldest start of the ring's
    windows; grows by doubling when that span fills it. *)

type t
(** A window: a run of consecutive samples of a ring. *)

val ring : unit -> ring

val push : ring -> time:float -> float -> unit
(** Append a sample. Raises [Invalid_argument] if [time] precedes the
    previous sample's. *)

val window : ring -> window_s:float -> t
(** An empty window starting at the ring's next sample. Raises
    [Invalid_argument] on a non-positive width. *)

val take : t -> unit
(** Extend the window by the next sample it has not taken (none: no-op),
    then evict every sample with [time < taken - window_s]. *)

val take_aged : t -> now:float -> unit
(** {!take} each pending sample with [time <= now - window_s]. *)

val create : window_s:float -> t
(** A window over a ring of its own. *)

val add : t -> time:float -> float -> unit
(** {!push} onto the window's ring, then {!take}. *)

val count : t -> int

val pending : t -> int
(** Samples on the ring the window has not taken. *)

(* test-hook: test/test_telemetry.ml *)
val mean : t -> float
(** [nan] when the window is empty. *)

val mean_into : t -> float array -> int -> unit
(** [mean_into t a i] stores {!mean} in [a.(i)], so a caller in another
    module reads it unboxed. *)

val stddev : t -> float
(** Population stddev of the window; [0.] with < 2 samples. *)
