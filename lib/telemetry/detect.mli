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

val create : unit -> t
(** Two adjacent 5 s comparison windows for level shifts. A shift is a
    difference of window means above 2 ms; a spike is an excursion more
    than 10 ms above the older window's mean. A cooldown (30 s for
    shifts, one window for spikes) suppresses duplicate reports of one
    incident. *)

val add : t -> time:float -> float -> unit
(** Feed one sample; allocation-free. Any freshly detected event is
    appended to the history read back by {!events}. *)

val events : t -> event list
(** All events so far, oldest first. Allocates; cold read side. *)
