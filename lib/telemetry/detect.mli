(** Online detection of the two §5 phenomena: route-change level shifts
    and instability spike periods. *)

type event =
  | Level_shift of { at : float; before_ms : float; after_ms : float }
      (** Sustained change of the delay floor (Fig. 4 middle: +5 ms for
          ~10 min after a GTT internal route change). *)
  | Spike of { at : float; value_ms : float; baseline_ms : float }
      (** Transient excursion well above the floor (Fig. 4 right: up to
          78 ms against a 28 ms floor). *)

type t

val of_ring : Rolling.ring -> t
(** Two adjacent 5 s windows over the ring from its next sample: a
    recent one, and an older one that takes each sample once it is 5 s
    old. A shift is a difference of window means above 2 ms; a spike is
    an excursion more than 10 ms above the older window's mean. A
    cooldown (30 s for shifts, one window for spikes) suppresses
    duplicate reports of one incident. *)

val create : unit -> t
(** {!of_ring} over a ring of its own. *)

val update : t -> time:float -> float -> unit
(** Feed the sample just {!Rolling.push}ed, passed again: once per push.
    Allocation-free; a detected event is appended to {!events}. *)

val add : t -> time:float -> float -> unit
(** {!Rolling.push} one sample onto the ring, then {!update}. *)

(* test-hook: test/test_telemetry.ml *)
val window_counts : t -> int * int * int
(** Samples in the recent window, in the older one, and not yet aged. *)

val events : t -> event list
(** All events so far, oldest first. Allocates; cold read side. *)
