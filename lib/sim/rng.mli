(** Deterministic pseudo-random number generation for simulations.

    The generator is SplitMix64: fast, statistically solid for simulation
    purposes, and a pure function of its seed, so experiments reproduce. *)

type t
(** A mutable generator. Two generators created with the same seed produce
    identical streams. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Any integer seed is valid. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> mean:float -> std:float -> float
(** Normal deviate via Box–Muller. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (mean [1. /. rate]). *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto deviate, [>= scale]; heavy-tailed for spike magnitudes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
