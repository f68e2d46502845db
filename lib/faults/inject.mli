(** Turning fault specs into scheduled simulator events.

    [arm] takes a two-site deployment ({!Tango.Pair}) and a spec list
    and schedules, on the pair's own {!Tango_sim.Engine}, an activation
    at each spec's onset and a deactivation at its end — so faults
    interleave deterministically with probes, reports and traffic, and
    the whole schedule is reproducible from the seed alone.

    What each kind does when it fires:
    - [Blackhole] / [Flap]: {!Tango_dataplane.Fabric.fail_link} on the
      path's distinguishing link (its last transit hop, resolved from
      the live BGP tables at activation time);
    - [Brownout]: {!Tango_dataplane.Fabric.set_link_fault} with the
      spec's loss and a fresh {!Tango_workload.Delay_process} burst;
    - [Probe_starvation]: {!Tango.Pop.set_probe_suppression} on the
      sending PoP;
    - [Clock_step]: {!Tango.Pop.step_clock} on the receiving PoP
      (stepped back on deactivation);
    - [Bgp_withdraw] / [Bgp_flap]: withdraw (and re-announce with the
      original communities) the path's tunnel prefix at its origin;
    - [Community_drop]: re-announce the prefix with an empty community
      set, restoring the original set on deactivation.

    Deactivation always restores the pre-fault state, so a run whose
    faults have all expired (or been {!clear}ed) is structurally
    fault-free again. *)

type t

val arm : pair:Tango.Pair.t -> ?seed:int -> Spec.t list -> t
(** Validate the specs against the deployment (path ids must exist in
    their direction) and schedule every activation/deactivation
    relative to the engine's current time. [seed] (default 42) feeds
    only the brownout delay bursts. Raises {!Err.Invalid}, before
    anything is scheduled, on a mesh-only kind ({!Spec.targets_mesh})
    or an out-of-range path id (and propagates {!Spec.validate}
    failures). *)

(* test-hook: test/test_faults.ml *)
val clear : t -> unit
(** Immediately deactivate every active fault, restoring links, link
    faults, probe trains, clocks and announcements — and disarm every
    not-yet-fired activation (their scheduled events become no-ops).
    Idempotent. It runs each fault's end-of-window undo early: the
    tests compare a cleared run with a fault-free twin to show the
    undo leaves no residue. *)

(* test-hook: test/test_faults.ml *)
val active : t -> int
(** Faults currently in their active window: the probe the fault tests
    read mid-window. *)

val injected : t -> int
(** Activations fired so far (a flap counts once, not per toggle). *)

val switches_during : t -> int
(** Path switches the affected sender's policy made inside completed
    fault windows — the switches-per-fault numerator. *)

val last_off_s : t -> float
(** Virtual time the latest fault window closed (deactivation or final
    {!clear}); [neg_infinity] before any window has closed. The faults
    summary measures recovery time from here. *)

val timeline : t -> (float * string) list
(** Human-readable activation/deactivation log, in event order:
    [(virtual time, "on|off <spec>")]. *)
