(** Append-only time series of (time, value) samples.

    Times must be fed non-decreasing (simulation order); the structure is
    backed by growable arrays, so eight simulated days of samples remain
    cheap and slicing is O(log n + k). *)

type t

val create : ?capacity:int -> unit -> t

val add : t -> time:float -> float -> unit
(** Raises [Invalid_argument] if [time] precedes the last sample. *)

val length : t -> int

val time_at : t -> int -> float
val value_at : t -> int -> float

val first_time : t -> float option
val last_time : t -> float option
val last_value : t -> float option

val iter : t -> (time:float -> value:float -> unit) -> unit

val fold : t -> init:'a -> f:('a -> time:float -> value:float -> 'a) -> 'a

val stats : t -> Tango_sim.Stats.summary
(** Summary over all values. *)

val between : t -> t0:float -> t1:float -> t
(** Samples with [t0 <= time < t1], as a fresh series. *)

val downsample : t -> bucket_s:float -> t
(** Mean value per time bucket, stamped at the bucket start. Empty
    buckets produce no sample. *)
