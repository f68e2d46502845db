(** Synthetic time-varying delay of one transit network in one direction.

    The paper measured the real NTT/Telia/GTT backbones for eight days;
    we substitute a generative model whose terms map one-to-one onto the
    phenomena §5 reports:

    - a {b diurnal} sinusoid (slow drift visible in the 24 h panel);
    - {b correlated noise}: an Ornstein–Uhlenbeck process (short-term
      wander);
    - {b white noise} per sample (per-packet jitter — this is what the
      1-s rolling-stddev metric picks up);
    - scheduled {b events}: route-change level shifts (Fig. 4 middle) and
      instability windows with heavy-tailed spikes (Fig. 4 right).

    A process is queried with a monotonically non-decreasing clock by the
    packet fabric and returns the extra one-way delay in ms. *)

type spike = { at_s : float; magnitude_ms : float; width_s : float }

type event =
  | Level_shift of {
      start_s : float;
      duration_s : float;
      magnitude_ms : float;
      onset : spike list;  (** Brief instability around the change. *)
    }
  | Instability of { start_s : float; duration_s : float; spikes : spike list }
      (** A spike contributes [magnitude_ms] from [at_s] for [width_s],
          then nothing. *)

val make_instability :
  rng:Tango_sim.Rng.t ->
  start_s:float ->
  duration_s:float ->
  rate_hz:float ->
  max_magnitude_ms:float ->
  unit ->
  event
(** Poisson spike arrivals with Pareto magnitudes capped at
    [max_magnitude_ms], each held for 1.5 s; at least one spike reaches
    the cap, so the episode's headline peak is deterministic. *)

val make_route_change :
  rng:Tango_sim.Rng.t ->
  start_s:float ->
  duration_s:float ->
  magnitude_ms:float ->
  unit ->
  event

type t

val create :
  seed:int ->
  ?base_ms:float ->
  ?diurnal_amplitude_ms:float ->
  ?diurnal_period_s:float ->
  ?ou_std_ms:float ->
  ?ou_tau_s:float ->
  ?white_std_ms:float ->
  ?events:event list ->
  unit ->
  t
(** All stochastic terms default to zero/off. The diurnal sinusoid
    starts at phase 0, at the midpoint of its swing. [base_ms] is a
    constant positive floor; noisy processes need one large enough that the
    zero-clamp never bites, or their noise distribution is truncated. *)

val value : t -> time_s:float -> float
(** Extra delay at [time_s] (>= 0; the deterministic floor plus noise is
    clamped at zero). Advances the internal noise state: query times must
    be non-decreasing. *)

(* test-hook: test/test_workload.ml *)
val floor_value : t -> time_s:float -> float
(** Deterministic part only (diurnal + events, no noise): the ground
    truth the calibration tests read under the noise. *)
