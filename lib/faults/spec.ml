module Rng = Tango_sim.Rng

type dir = To_la | To_ny

type kind =
  | Blackhole
  | Flap of { period_s : float }
  | Brownout of { loss : float; extra_ms : float }
  | Probe_starvation
  | Clock_step of { step_ms : float }
  | Bgp_withdraw
  | Bgp_flap of { period_s : float }
  | Community_drop
  | Relay_kill
  | Mesh_partition of { region : int }
  | Relay_detour
  | Relay_tamper of { truncate : bool }
  | Relay_replay

type t = {
  kind : kind;
  dir : dir;
  path : int;
  start_s : float;
  duration_s : float;
}

let[@hot] kind_code kind =
  match kind with
  | Blackhole -> 0
  | Flap _ -> 1
  | Brownout _ -> 2
  | Probe_starvation -> 3
  | Clock_step _ -> 4
  | Bgp_withdraw -> 5
  | Bgp_flap _ -> 6
  | Community_drop -> 7
  | Relay_kill -> 8
  | Mesh_partition _ -> 9
  | Relay_detour -> 10
  | Relay_tamper { truncate = false } -> 11
  | Relay_tamper { truncate = true } -> 12
  | Relay_replay -> 13

let targets_mesh = function
  | Relay_kill | Mesh_partition _ | Relay_detour | Relay_tamper _ | Relay_replay ->
      true
  | Blackhole | Flap _ | Brownout _ | Probe_starvation | Clock_step _
  | Bgp_withdraw | Bgp_flap _ | Community_drop ->
      false

let kind_to_string = function
  | Blackhole -> "blackhole"
  | Flap { period_s } -> Printf.sprintf "flap(period=%gs)" period_s
  | Brownout { loss; extra_ms } ->
      Printf.sprintf "brownout(loss=%.2f,extra=%gms)" loss extra_ms
  | Probe_starvation -> "probe-starvation"
  | Clock_step { step_ms } -> Printf.sprintf "clock-step(%+gms)" step_ms
  | Bgp_withdraw -> "bgp-withdraw"
  | Bgp_flap { period_s } -> Printf.sprintf "bgp-flap(period=%gs)" period_s
  | Community_drop -> "community-drop"
  | Relay_kill -> "relay-kill"
  | Mesh_partition { region } -> Printf.sprintf "mesh-partition(region=%d)" region
  | Relay_detour -> "relay-detour"
  | Relay_tamper { truncate = false } -> "relay-tamper"
  | Relay_tamper { truncate = true } -> "relay-truncate"
  | Relay_replay -> "relay-replay"

let dir_to_string = function To_la -> "to-la" | To_ny -> "to-ny"

let to_string t =
  Printf.sprintf "%s %s path=%d @%gs+%gs" (kind_to_string t.kind)
    (dir_to_string t.dir) t.path t.start_s t.duration_s

let check_period ~what ~duration_s period_s =
  if period_s <= 0.0 then Err.invalid "Spec: %s period %g not positive" what period_s;
  if period_s > duration_s then
    Err.invalid "Spec: %s period %g exceeds duration %g" what period_s duration_s

let validate t =
  if t.path < 0 then Err.invalid "Spec: negative path id %d" t.path;
  if t.start_s < 0.0 then Err.invalid "Spec: negative start %g" t.start_s;
  if t.duration_s <= 0.0 then
    Err.invalid "Spec: non-positive duration %g" t.duration_s;
  match t.kind with
  | Blackhole | Probe_starvation | Bgp_withdraw | Community_drop -> ()
  | Flap { period_s } -> check_period ~what:"flap" ~duration_s:t.duration_s period_s
  | Bgp_flap { period_s } ->
      check_period ~what:"bgp-flap" ~duration_s:t.duration_s period_s
  | Brownout { loss; extra_ms } ->
      if loss < 0.0 || loss > 1.0 then
        Err.invalid "Spec: brownout loss %g outside [0,1]" loss;
      if extra_ms < 0.0 then Err.invalid "Spec: negative brownout delay %g" extra_ms
  | Clock_step { step_ms } ->
      if Float.equal step_ms 0.0 then Err.invalid "Spec: zero clock step"
  | Relay_kill -> ()
  | Mesh_partition { region } ->
      if region < 0 then Err.invalid "Spec: negative partition region %d" region
  | Relay_detour | Relay_tamper _ | Relay_replay -> ()

let v ?(dir = To_ny) ?(path = 0) ~start_s ~duration_s kind =
  let t = { kind; dir; path; start_s; duration_s } in
  validate t;
  t

(* Deterministic spec generator: every random draw goes through one
   [Rng.t] in a fixed order, so the schedule is a pure function of
   [seed] — the property the qcheck determinism tests pin down. The
   bound stays at the 8 pairwise kinds on purpose: [Relay_kill] and
   [Mesh_partition] only make sense against a mesh world (they are
   armed by [Tango_mesh], not {!Inject.arm}), and widening the draw
   would silently reshuffle every seeded schedule in E12 and the
   baselines. *)
let random_kind rng ~duration_s =
  match Rng.int rng 8 with
  | 0 -> Blackhole
  | 1 -> Flap { period_s = 0.25 +. Rng.float rng (duration_s -. 0.25) }
  | 2 ->
      Brownout
        { loss = Rng.float rng 0.8; extra_ms = 1.0 +. Rng.float rng 49.0 }
  | 3 -> Probe_starvation
  | 4 ->
      let magnitude = 1.0 +. Rng.float rng 99.0 in
      Clock_step { step_ms = (if Rng.bool rng then magnitude else -.magnitude) }
  | 5 -> Bgp_withdraw
  | 6 -> Bgp_flap { period_s = 0.5 +. Rng.float rng (duration_s -. 0.5) }
  | _ -> Community_drop

let random ~seed ~paths ~n =
  if paths <= 0 then Err.invalid "Spec.random: no paths";
  if n < 0 then Err.invalid "Spec.random: negative count";
  let rng = Rng.create ~seed in
  let rec go i acc =
    if i = n then List.rev acc
    else begin
      (* Draw in a fixed field order; durations at least 1 s so flap
         periods always fit. *)
      let start_s = Rng.float rng 30.0 in
      let duration_s = 1.0 +. Rng.float rng 29.0 in
      let path = Rng.int rng paths in
      let dir = if Rng.bool rng then To_ny else To_la in
      let kind = random_kind rng ~duration_s in
      go (i + 1) (v ~dir ~path ~start_s ~duration_s kind :: acc)
    end
  in
  go 0 []
