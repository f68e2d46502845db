(** Physical properties of an inter-AS link. *)

type t = {
  delay_ms : float;  (** One-way propagation delay. *)
  jitter_ms : float;  (** Stddev of per-packet delay noise. *)
  bandwidth_mbps : float;
  loss : float;  (** Independent per-packet loss probability, [0,1). *)
}

val v : ?jitter_ms:float -> ?bandwidth_mbps:float -> ?loss:float -> float -> t
(** [v delay_ms] with defaults: jitter 0.02 ms, 10 Gb/s, no loss. Raises
    [Invalid_argument] on negative delay/jitter or loss outside [0,1). *)

val default : t
(** 1 ms link. *)

val transmission_delay_ms : t -> bytes:int -> float
(** Serialization time of [bytes] at the link rate. *)
