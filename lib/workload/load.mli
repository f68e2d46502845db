(** Million-flow workload engine: seeded, heavy-tailed, diurnal flow
    schedules for the batched dataplane (DESIGN.md §14).

    A {!plan} is pure data — flat per-flow arrays of (class, start
    generation, send stride, packet count) — built deterministically
    from a seed. {!sends_at} and {!seq_index} define the schedule per
    (flow, generation): whether the flow sends, and the tunnel sequence
    number it sends. The dataplane does not ask them flow by flow; each
    lane compiles its own flows into per-generation send lists
    ({!Sends}), which hold exactly those sends, so any lane partition of
    the same plan produces byte-identical schedules. *)

type cls = Rpc | Bulk | Video

type mix = { rpc : float; bulk : float; video : float }
(** Class shares; must sum to 1. *)

type config = {
  flows : int;
  generations : int;  (** horizon, in dataplane generations (1 ms each) *)
  seed : int;
  mix : mix;
  alpha : float;  (** bounded-Pareto tail exponent for bulk sizes *)
  size_lo : float;  (** bulk size bounds, in packets *)
  size_hi : float;
  waves : float;  (** diurnal wave periods across the horizon *)
  wave_depth : float;  (** modulation depth in [0, 1) *)
  rpc_max : int;  (** RPC sizes uniform in [1, rpc_max] packets *)
  video_stride : int;  (** CBR cadence: one packet per this many gens *)
  video_pkts : int;  (** CBR segment length cap, in packets *)
}

val default_config :
  ?flows:int -> ?generations:int -> ?seed:int -> unit -> config
(** 50% RPC / 30% bulk / 20% video, Pareto(1.3) on [8, 2000] packets,
    two diurnal waves at depth 0.6. *)

(* test-hook: test/test_workload.ml *)
val bounded_pareto : Tango_sim.Rng.t -> alpha:float -> lo:float -> hi:float -> float
(** Inverse-CDF draw from the bounded Pareto on [lo, hi] with tail
    exponent [alpha]: the bulk-flow size sampler, whose draws the tests
    hold to the distribution. *)

(* test-hook: test/test_workload.ml *)
val diurnal_cumulative :
  generations:int -> waves:float -> depth:float -> float array
(** Cumulative sums of the relative arrival intensity per generation,
    [1 + depth * sin] over [waves] full periods — the inverse-CDF table
    flow start times sample from, which the tests check conserves mass:
    the last entry is [generations] (up to the half-sample phase
    offset). *)

type plan

val plan : config -> plan
(** Build the full per-flow schedule. Deterministic in [config] (same
    config, byte-identical plan). Raises [Invalid_argument] on
    malformed configs. *)

val uniform : flows:int -> generations:int -> plan
(** The E14 full-mesh blast as a plan: every flow sends one packet per
    generation over the whole horizon. *)

val flows : plan -> int
val generations : plan -> int

val max_gen_sends : plan -> int
(** Peak offered packets in any single generation — sizes in-flight
    rings. *)

val flow_pkts : plan -> int -> int
(** Packets the flow sends inside the horizon. *)

val sends_at : plan -> flow:int -> gen:int -> bool
(** Does this flow put a packet on the wire at this generation? O(1),
    allocation-free. The reference definition of the schedule: {!Sends}
    compiles exactly the (flow, generation) pairs where it holds. *)

val seq_index : plan -> flow:int -> gen:int -> int
(** 0-based send index of the flow at a generation where {!sends_at}
    holds — the packet's tunnel sequence number. *)

(** Per-generation send lists compiled from a plan for one set of flows
    (a lane's), a bounded window of generations at a time.

    Generation [g]'s sends are the slice [[first t ~gen:g, stop t ~gen:g)]
    of the {!flows}/{!seqs} buffers: exactly the flows where
    [sends_at plan ~flow ~gen:g] holds, each once, in ascending flow
    order, with [seqs.(i) = seq_index plan ~flow:flows.(i) ~gen:g].
    Memory is O(flows + one window's sends); compiling a window costs
    O(flows with sends left + the window's sends), so flows that are
    idle or finished cost nothing per generation. *)
module Sends : sig
  type t

  val create : plan -> flows:int array -> t
  (** Compiler over [flows] (strictly ascending plan flow ids) in
      windows of 32 generations. Compiles nothing yet. Raises
      [Invalid_argument] on malformed [flows]. *)

  val seek : t -> gen:int -> unit
  (** Compile forward until [gen]'s window is loaded. Generations must
      be visited in nondecreasing order: raises [Invalid_argument] for a
      generation before the loaded window or past the horizon. *)

  val first : t -> gen:int -> int
  (** Index of [gen]'s first send in the buffers. [gen] must lie in the
      loaded window. *)

  val stop : t -> gen:int -> int
  (** One past [gen]'s last send. *)

  val flows : t -> int array
  (** Flow ids of the loaded window's sends. Sized at {!create} and
      overwritten when {!seek} compiles the next window. *)

  val seqs : t -> int array
  (** Send indices, parallel to {!flows}. *)
end

val pp_summary : Format.formatter -> plan -> unit
(** [flows=F (rpc=R bulk=B video=V) gens=G packets=P peak-gen=M]: the
    class counts, the packets scheduled inside the horizon and the peak
    {!max_gen_sends}. *)
