(** Typed fault specifications.

    A fault spec names one thing that goes wrong, on one wide-area path
    in one direction, over one time window. Specs are plain data:
    {!Inject.arm} turns a list of them into scheduled simulator events,
    and {!Scenario} groups curated lists under stable names. Keeping
    the spec layer pure makes fault schedules trivially reproducible —
    the same spec list plus the same seed is the same run, byte for
    byte. *)

type dir =
  | To_la  (** Faults on the NY→LA direction (paths LA measures inbound). *)
  | To_ny  (** Faults on the LA→NY direction — the default. *)

type kind =
  | Blackhole
      (** Silently drop everything crossing the path's distinguishing
          transit link, BGP oblivious — the gray failure of §5. *)
  | Flap of { period_s : float }
      (** Alternate the blackhole on/off every [period_s / 2] seconds —
          the oscillating path that flap damping exists for. *)
  | Brownout of { loss : float; extra_ms : float }
      (** Degrade without killing: extra drop probability [loss] and a
          noisy extra delay around [extra_ms] ms (a
          {!Tango_workload.Delay_process} burst) on the path's
          distinguishing link. *)
  | Probe_starvation
      (** Suppress the sending PoP's probe train: the receiver's stats
          go stale everywhere at once and dead-path detection must fire
          on staleness alone. The [path] field is ignored. *)
  | Clock_step of { step_ms : float }
      (** NTP-style step of the {e receiving} PoP's clock. Relative OWD
          comparison must survive it (paper footnote 1); absolute OWDs
          shift. The [path] field is ignored. *)
  | Bgp_withdraw
      (** Withdraw the path's tunnel prefix at its origin — the
          control-plane failure BGP {e does} see. *)
  | Bgp_flap of { period_s : float }
      (** Withdraw / re-announce the tunnel prefix every [period_s / 2]
          seconds — route flapping with full propagation delays. *)
  | Community_drop
      (** Re-announce the tunnel prefix {e without} its community set:
          the prefix stays reachable but is no longer pinned to its
          path, collapsing onto the provider default. *)
  | Relay_kill
      (** Take a relay PoP down mid-flow: its hellos stop and every
          frame it would forward is dropped. The [path] field carries
          the target PoP id ([0] lets the mesh pick its busiest relay).
          Mesh-only — armed via [Tango_mesh.Mesh.run], not
          {!Inject.arm}. *)
  | Mesh_partition of { region : int }
      (** Cut every inter-region link touching topology [region] — a
          geographic partition. The [path] field is ignored. Mesh-only,
          like {!Relay_kill}. *)
  | Relay_detour
      (** Byzantine relay: forward every transit frame through an
          off-route neighbor (extra physical hop, off-route evidence
          fold) — the attestation layer's [Wrong_path] verdict. The
          [path] field carries the target PoP id, [0] = busiest transit
          relay. Mesh-only. *)
  | Relay_tamper of { truncate : bool }
      (** Byzantine relay: with [truncate = false], garble the evidence
          chain after folding ([Forged] verdict); with [truncate =
          true], short-cut the rest of the overlay route through the
          underlay ([Truncated] verdict). Targeting as {!Relay_detour}.
          Mesh-only. *)
  | Relay_replay
      (** Byzantine relay: capture one transit frame and re-inject byte
          copies every 100 ms for the fault window ([Replayed]
          verdict). Targeting as {!Relay_detour}. Mesh-only. *)

type t = {
  kind : kind;
  dir : dir;
  path : int;  (** Target path index in [dir]'s discovery order. *)
  start_s : float;  (** Onset, seconds after arming. *)
  duration_s : float;  (** Active window length, seconds. *)
}

val v : ?dir:dir -> ?path:int -> start_s:float -> duration_s:float -> kind -> t
(** Build and validate a spec ([dir] defaults to [To_ny], [path] to 0).
    Raises {!Err.Invalid} when a field is out of range: negative
    [start_s] or [path], non-positive [duration_s], flap periods outside
    (0, [duration_s]], brownout loss outside [0,1] or negative extra
    delay, zero clock step. *)

val validate : t -> unit
(** The checks behind {!v}, for specs built literally. *)

val kind_code : kind -> int
(** Stable small-int code per kind (trace-record payload). *)

val targets_mesh : kind -> bool
(** Whether the kind is a mesh-only fault, armed through
    [Tango_mesh.Mesh.run]; every other kind targets the two-site pair
    and is armed through {!Inject.arm}. *)

val kind_to_string : kind -> string

val dir_to_string : dir -> string

val to_string : t -> string
(** One-line rendering, e.g.
    ["brownout(loss=0.30,extra=25ms) to-ny path=1 @5s+10s"]. *)

(* test-hook: test/test_faults.ml *)
val random : seed:int -> paths:int -> n:int -> t list
(** [n] pseudo-random valid specs over path ids [0, paths)], fully
    determined by [seed] — the generator behind the fuzz-shaped
    property tests. Raises {!Err.Invalid} when [paths <= 0] or
    [n < 0]. *)
