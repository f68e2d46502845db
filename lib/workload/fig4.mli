(** The calibrated dynamics of the paper's measurement study (§5, Fig. 4),
    time-compressed onto a configurable horizon.

    Each transit network gets an independent {!Delay_process.t} per
    direction, attached to the directed link where that transit hands
    traffic to the destination Vultr site — so the NTT/Telia/GTT/Cogent
    paths east- and west-bound all evolve independently, as the paper
    observed. Headline shapes:

    - GTT is the quiet, fastest path (jitter ≈ 0.01 ms eastbound);
    - Telia is noisy (jitter ≈ 0.33 ms eastbound);
    - NTT (the BGP default) drifts ~30% above GTT;
    - westbound GTT suffers one internal route change (+5 ms level for a
      tenth of the horizon, Fig. 4 middle) and one instability window
      (spikes up to 78 ms total OWD against the 28 ms floor, Fig. 4
      right). *)

type t

val create : ?seed:int -> ?horizon_s:float -> unit -> t
(** [horizon_s] defaults to 600 s (the compressed "8 days"). The route
    change adds 5 ms and occupies [0.40, 0.60) of the horizon. The
    instability spikes peak 50 ms above the floor (28 ms floor + 50 =
    78 ms peak) and occupy [0.70, 0.80). *)

val route_change_window : t -> float * float
(** [(start, stop)] in seconds. *)

val instability_window : t -> float * float

val process_for :
  t -> transit:int -> toward:int -> Delay_process.t option
(** The process attached to the [transit -> toward] directed link, or
    [None]: the per-link resolver behind {!Tango_dataplane.Fabric.create}'s
    [extra_delay_ms] (see [Pair.setup_vultr]), and what the calibration
    checks read. *)
