(** ECMP reverse engineering (§6: "worth being automated using more
    knobs such as AS-path poisoning, ECMP reverse engineering etc.").

    A transit that load-balances internally exposes one delay floor per
    internal lane. By probing many distinct 5-tuples toward the same
    destination and clustering each flow's minimum observed delay, a
    Tango endpoint can estimate how many lanes the default path hides
    and how far apart they are — useful both to pick good tunnel ports
    and to know how much variance a non-tunneled service would suffer. *)

type lane = {
  offset_ms : float;  (** Delay floor relative to the fastest lane. *)
  flows : int;  (** Probe flows that hashed onto this lane. *)
}

type t = {
  lanes : lane list;  (** Sorted by offset, fastest first. *)
  spread_ms : float;  (** Offset of the slowest lane. *)
}

val probe :
  fabric:Tango_dataplane.Fabric.t ->
  from_node:int ->
  src:Tango_net.Addr.t ->
  dst:Tango_net.Addr.t ->
  ?flows:int ->
  ?probes_per_flow:int ->
  unit ->
  t
(** Active measurement: send [flows] distinct-port probe flows (default
    64) with [probes_per_flow] packets each (default 10), one probe
    every 2 ms, then infer the lane structure from the per-flow floors:
    a greedy 1-D clustering merges sorted floors within 0.5 ms of the
    running cluster mean, and each cluster is a lane at its mean.
    Runs the engine until the probes drain. *)
