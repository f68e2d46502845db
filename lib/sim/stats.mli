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

type summary = {
  n : int;
  mean : float;  (** [nan] when empty *)
  stddev : float;
      (** square root of the unbiased sample variance; [0.] with fewer
          than two observations *)
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
  p50 : float;
  p90 : float;
  p99 : float;
      (** quantiles estimated from the reservoir, interpolating between
          its order statistics; [nan] when empty or when the reservoir
          is disabled *)
}

val summarize : t -> summary
