(** Streaming statistics.

    All accumulators run in O(1) memory (plus a bounded reservoir for
    quantiles), so eight simulated days of 10 ms samples cost nothing. *)

type t
(** Welford accumulator with min/max and an optional quantile reservoir. *)

val create : ?reservoir:int -> ?seed:int -> unit -> t
(** [create ~reservoir ()] keeps a uniform sample of up to [reservoir]
    observations (default 4096; [0] disables quantiles). *)

val add : t -> float -> unit
(** Feed one observation. *)

val count : t -> int
val mean : t -> float
(** Mean of observations; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float
val min_value : t -> float
(** Smallest observation; [infinity] when empty. *)

val max_value : t -> float
(** Largest observation; [neg_infinity] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] estimates the [q]-quantile ([0 <= q <= 1]) from the
    reservoir. [nan] when empty or when the reservoir is disabled. *)

val merge : t -> t -> t
(** Combine two accumulators (reservoirs are concatenated then trimmed). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : t -> summary
