(** Process-wide metric registry: named counters, gauges and
    log-bucketed histograms backed by flat int/float arrays.

    The record paths ({!incr}, {!add}, {!set}, {!observe}) are O(1) and
    allocation-free, so they are safe inside [@hot] bodies of the packet
    fast path. All of them are gated on one process-wide switch
    ({!set_enabled}), default off: an uninstrumented run pays a load and
    a branch per call site and nothing else.

    Registration ({!counter}, {!gauge}, {!histogram}) is the cold path —
    do it once, at module-init time, and keep the returned handle.
    Registering an already-registered name returns the existing handle;
    re-registering it as a different kind (or a histogram with a
    different layout) raises [Invalid_argument]. Metric names must match
    [[A-Za-z0-9_:]+] so they render directly in both export formats. *)

type counter

type gauge

type histogram

val enabled : unit -> bool
(** Whether recording is live. Off by default. *)

val set_enabled : bool -> unit
(** Flip the process-wide recording switch ([--metrics] sets it). *)

(** {1 Registration (cold path)} *)

val counter : ?help:string -> string -> counter
(** [counter name] registers (or looks up) a monotonically increasing
    counter. *)

val gauge : ?help:string -> string -> gauge
(** [gauge name] registers (or looks up) a last-value-wins gauge. *)

val histogram : ?help:string -> ?lo_exp:int -> ?buckets:int -> string -> histogram
(** [histogram name] registers a log-bucketed histogram: bucket [i]
    (for [0 <= i < buckets]) counts observations [v] with
    [2^(lo_exp+i-1) < v <= 2^(lo_exp+i)] (bucket 0 also absorbs
    everything below, including non-positive values), and one extra
    overflow bucket at index [buckets] absorbs the rest (including
    nan/inf). Defaults: [lo_exp = -20] (≈ 1 µs when observing seconds),
    [buckets = 24] (≈ 16 s). *)

(** {1 Recording (hot path, allocation-free)} *)

val incr : counter -> unit

val add : counter -> int -> unit

val set : gauge -> float -> unit

val set_ratio : gauge -> num:int -> den:int -> unit
(** [set] the gauge to [num /. den], or [0.] when [den] is zero — the
    shared guard for hit-rate and occupancy-fraction gauges. *)

val observe : histogram -> float -> unit

(** {1 Reading (cold path: tests and exporters)} *)

val counter_value : counter -> int

val gauge_value : gauge -> float

type view = { name : string; help : string; value : value }

and value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of {
      upper_bounds : float array;
          (** inclusive upper bounds of the finite buckets, ascending
              powers of two; a value at or below the first (NaN and
              non-positive values too) counts in bucket 0, and one above
              the last in the overflow bucket *)
      counts : int array;  (** one entry per finite bucket, then the overflow bucket *)
      sum : float;  (** sum of every finite observed value (NaN excluded) *)
      count : int;  (** total observations, overflow included *)
    }

val views : unit -> view list
(** Every registered metric with its current value, sorted by name. *)

val reset_values : unit -> unit
(** Zero every counter/gauge/histogram, keeping registrations: a fresh
    run in the same process aggregates from a clean slate. *)
