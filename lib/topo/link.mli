(** Physical properties of an inter-AS link. Links do not lose
    packets; loss comes only from injected faults
    ({!Tango_dataplane.Fabric.set_link_fault}). *)

type t = {
  delay_ms : float;  (** One-way propagation delay. *)
  jitter_ms : float;  (** Stddev of per-packet delay noise. *)
  bandwidth_mbps : float;
}

val v : ?jitter_ms:float -> ?bandwidth_mbps:float -> float -> t
(** [v delay_ms] with defaults: jitter 0.02 ms, 10 Gb/s. Raises
    [Invalid_argument] on negative delay/jitter or non-positive
    bandwidth. *)

val default : t
(** 1 ms link. *)

(* test-hook: test/test_topo.ml *)
val transmission_delay_ms : t -> bytes:int -> float
(** Serialization time of [bytes] at the link rate:
    [float_of_int (bytes * 8) /. (bandwidth_mbps *. 1000.0)], the
    expression [Tango_dataplane.Fabric] evaluates per hop with the
    divisor computed once per link. *)
