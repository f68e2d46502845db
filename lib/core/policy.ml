module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace

(* Process-wide observability (DESIGN.md §8): emergency evacuations are
   the data-driven failovers of E9, distinct from ordinary switches. *)
let m_evacuations =
  Metric.counter
    ~help:"Emergency path evacuations (current path unusable, hysteresis bypassed)"
    "pop_failover_evacuations_total"

let m_all_degraded =
  Metric.counter
    ~help:"Episodes in which every path was unusable and the policy pinned \
           the best-known path"
    "pop_all_paths_degraded_total"

let m_readmit_bans =
  Metric.counter
    ~help:"Re-admission bans applied to flapping paths (exponential backoff)"
    "pop_readmit_bans_total"

let h_detection =
  Metric.histogram
    ~help:"Staleness of the abandoned path's statistics at emergency \
           failover (seconds) — how long the dead path went undetected"
    ~lo_exp:(-10) ~buckets:24 "pop_failover_detection_seconds"

let k_evacuation = Trace.kind "pop.evacuation"

let k_degraded = Trace.kind "pop.all_degraded"

let k_readmit_ban = Trace.kind "pop.readmit_ban"

type path_stats = {
  path_id : int;
  owd_ewma_ms : float;
  jitter_ms : float;
  loss_rate : float;
  age_s : float;
  samples : int;
}

let no_stats ~path_id =
  { path_id; owd_ewma_ms = nan; jitter_ms = nan; loss_rate = 0.0; age_s = infinity; samples = 0 }

type spec =
  | Bgp_default
  | Static of int
  | Lowest_owd of { hysteresis_ms : float; min_dwell_s : float }
  | Jitter_aware of { beta : float; hysteresis_ms : float; min_dwell_s : float }

let spec_to_string = function
  | Bgp_default -> "bgp-default"
  | Static i -> Printf.sprintf "static-%d" i
  | Lowest_owd _ -> "lowest-owd"
  | Jitter_aware _ -> "jitter-aware"

(* A path whose recent loss rate exceeds this is unusable. *)
let max_loss = 0.25

(* Per-path flap-damping state, kept as parallel flat arrays sized once
   at [create]: the scoring pass is reachable from [@hot] code
   (Pop.refresh_policy), so the state must never grow — lazily growing
   a record array here used to be three grandfathered hot-reach
   findings. [was_usable] tracks the raw measurement verdict (bans
   excluded), so a ban cannot re-trigger itself. *)
type t = {
  spec : spec;
  mutable max_staleness_s : float;
  (* Exponential backoff on re-admitting a path that keeps failing:
     after its [n]th failure a recovered path must wait
     [readmit_backoff_s * 2^(n-1)] (capped at [backoff_max_s]) before it
     is eligible again. 0 disables the mechanism entirely. *)
  readmit_backoff_s : float;
  (* Set the first time an external ban ({!ban}) is applied, so the
     default (no reconciler, no backoff) scoring pass never has to
     consult per-path ban state. *)
  mutable external_bans : bool;
  was_usable : Bytes.t;
  fails : int array;
  banned_until : float array;
  last_down : float array;
  mutable current : int;
  mutable last_switch_s : float;
  mutable switches : int;
  mutable degraded : bool;
  mutable degraded_episodes : int;
}

let backoff_max_s = 30.0

let path_capacity = 64

let create ?(readmit_backoff_s = 0.0) spec =
  if readmit_backoff_s < 0.0 then
    invalid_arg "Policy.create: negative readmit backoff";
  let current = match spec with Static i -> i | _ -> 0 in
  {
    spec;
    max_staleness_s = 1.0;
    readmit_backoff_s;
    external_bans = false;
    was_usable = Bytes.make path_capacity '\000';
    fails = Array.make path_capacity 0;
    banned_until = Array.make path_capacity neg_infinity;
    last_down = Array.make path_capacity neg_infinity;
    current;
    last_switch_s = neg_infinity;
    switches = 0;
    degraded = false;
    degraded_episodes = 0;
  }

let set_max_staleness_s t s =
  if s <= 0.0 then invalid_arg "Policy.set_max_staleness_s: non-positive";
  t.max_staleness_s <- s

let[@hot] path_check id =
  if id < 0 || id >= path_capacity then
    invalid_arg "Policy: path id outside the preallocated capacity"

(* [age_extra] re-bases a stats array measured [age_extra] seconds ago
   to the present without copying it: callers on the hot path (see
   Pop.refresh_policy) pass their raw cached array plus the elapsed
   time instead of materializing a rebased copy per evaluation. *)
let usable t ~age_extra stats =
  stats.samples > 0
  && (not (Float.is_nan stats.owd_ewma_ms))
  && stats.loss_rate <= max_loss
  && stats.age_s +. age_extra <= t.max_staleness_s

let score t ~beta ~age_extra stats =
  if not (usable t ~age_extra stats) then infinity
  else begin
    let jitter = if Float.is_nan stats.jitter_ms then 0.0 else stats.jitter_ms in
    stats.owd_ewma_ms +. (beta *. jitter)
  end

(* One bookkeeping pass per path per scoring pass: track up/down
   transitions of the raw measurement verdict and maintain the
   re-admission ban. Returns whether the path is eligible as a switch
   target (measurably usable and not serving a ban). *)
let update_damping t ~now_s ~meas stats =
  let id = stats.path_id in
  path_check id;
  let was = Bytes.unsafe_get t.was_usable id <> '\000' in
  if was && not meas then begin
    (* Down transition. An isolated failure long after the previous one
       restarts the doubling rather than continuing it. *)
    t.fails.(id) <-
      (if now_s -. t.last_down.(id) > backoff_max_s *. 4.0 then 1
       else t.fails.(id) + 1);
    t.last_down.(id) <- now_s
  end
  else if (not was) && meas && t.fails.(id) > 0 then begin
    (* Up transition of a path with a failure history: it must hold for
       the (exponentially growing, capped) backoff window before it is
       eligible again. *)
    let backoff =
      Float.min backoff_max_s
        (t.readmit_backoff_s *. (2.0 ** float_of_int (t.fails.(id) - 1)))
    in
    t.banned_until.(id) <- now_s +. backoff;
    Metric.incr m_readmit_bans;
    Trace.record Trace.default ~now:now_s ~kind:k_readmit_ban id t.fails.(id)
  end;
  Bytes.unsafe_set t.was_usable id (if meas then '\001' else '\000');
  meas && now_s >= t.banned_until.(id)

let update_path_state t ~now_s ~age_extra stats =
  let meas = usable t ~age_extra stats in
  (* With re-admission backoff disabled (the default) the damping state
     machine is never consulted, so skip its bookkeeping entirely and
     keep the scoring pass at the pre-damping cost. External bans (the
     reconciler's drain of removed paths) must still hold, but only
     once one has actually been applied. *)
  if t.readmit_backoff_s > 0.0 then update_damping t ~now_s ~meas stats
  else if t.external_bans then begin
    path_check stats.path_id;
    meas && now_s >= t.banned_until.(stats.path_id)
  end
  else meas

let observe_detection ~age_extra stats =
  match stats with
  | Some s when Float.is_finite s.age_s ->
      Metric.observe h_detection (s.age_s +. age_extra)
  | Some _ | None -> ()

let adaptive t ~now_s ~beta ~hysteresis_ms ~min_dwell_s ~age_extra stats =
  let current_stats = ref None in
  (* Best switch target over eligible paths; best-known path by smoothed
     OWD alone, for the all-degraded fallback (bans and staleness
     deliberately ignored — when everything is dead, the least-bad
     history wins). A plain indexed loop: an [Array.iter] closure here
     was a grandfathered hot-reach finding. *)
  let best_id = ref t.current and best_score = ref infinity in
  let best_known_id = ref t.current and best_known_owd = ref infinity in
  for i = 0 to Array.length stats - 1 do
    let s = stats.(i) in
    let eligible = update_path_state t ~now_s ~age_extra s in
    if s.path_id = t.current then current_stats := Some s;
    let sc = if eligible then score t ~beta ~age_extra s else infinity in
    if sc < !best_score then begin
      best_id := s.path_id;
      best_score := sc
    end;
    if
      s.samples > 0
      && (not (Float.is_nan s.owd_ewma_ms))
      && s.owd_ewma_ms < !best_known_owd
    then begin
      best_known_id := s.path_id;
      best_known_owd := s.owd_ewma_ms
    end
  done;
  let current_usable =
    match !current_stats with Some s -> usable t ~age_extra s | None -> false
  in
  let current_score =
    match !current_stats with Some s -> score t ~beta ~age_extra s | None -> infinity
  in
  if (not current_usable) && not (Float.is_finite !best_score) then begin
    (* Every path is unusable or banned: pin the best-known path and
       hold, raising one observability event per episode. Before any
       path has ever been measured there is nothing to degrade {e from}
       — hold the starting path silently instead. *)
    if !best_known_owd < infinity && not t.degraded then begin
      t.degraded <- true;
      t.degraded_episodes <- t.degraded_episodes + 1;
      Metric.incr m_all_degraded;
      Trace.record Trace.default ~now:now_s ~kind:k_degraded t.current !best_known_id;
      observe_detection ~age_extra !current_stats;
      if !best_known_id <> t.current then begin
        t.current <- !best_known_id;
        t.last_switch_s <- now_s;
        t.switches <- t.switches + 1
      end
    end
  end
  else begin
    (* At least one eligible target (or the current path recovered):
       any degraded episode is over. *)
    if t.degraded then t.degraded <- false;
    let emergency =
      (* The path under our feet went bad: leave at once, ignoring
         hysteresis and dwell — but only toward a usable alternative. *)
      (not current_usable) && !best_id <> t.current && !best_score < infinity
    in
    let improvement =
      !best_id <> t.current
      && !best_score < current_score -. hysteresis_ms
      && now_s -. t.last_switch_s >= min_dwell_s
    in
    if emergency || improvement then begin
      if emergency then begin
        Metric.incr m_evacuations;
        Trace.record Trace.default ~now:now_s ~kind:k_evacuation t.current !best_id;
        observe_detection ~age_extra !current_stats
      end;
      t.current <- !best_id;
      t.last_switch_s <- now_s;
      t.switches <- t.switches + 1
    end
  end;
  t.current

let choose ?(age_extra = 0.0) t ~now_s stats =
  if Array.length stats = 0 then invalid_arg "Policy.choose: no paths";
  match t.spec with
  | Bgp_default -> 0
  | Static i -> i
  | Lowest_owd { hysteresis_ms; min_dwell_s } ->
      adaptive t ~now_s ~beta:0.0 ~hysteresis_ms ~min_dwell_s ~age_extra stats
  | Jitter_aware { beta; hysteresis_ms; min_dwell_s } ->
      adaptive t ~now_s ~beta ~hysteresis_ms ~min_dwell_s ~age_extra stats

let current t = t.current

let retarget t ~path =
  if path < 0 then invalid_arg "Policy.retarget: negative path id";
  t.current <- path

let switches t = t.switches

let degraded t = t.degraded

let degraded_episodes t = t.degraded_episodes

let[@hot] readmit_banned t ~path ~now_s =
  path >= 0 && path < path_capacity && now_s < t.banned_until.(path)

let[@hot] ban t ~path ~now_s ~for_s =
  if path < 0 then invalid_arg "Policy.ban: negative path id";
  if for_s <= 0.0 then invalid_arg "Policy.ban: non-positive duration";
  path_check path;
  t.banned_until.(path) <- Float.max t.banned_until.(path) (now_s +. for_s);
  t.external_bans <- true

let unban t ~path =
  if path >= 0 && path < path_capacity then t.banned_until.(path) <- neg_infinity

let fail_count t ~path =
  if path >= 0 && path < path_capacity then t.fails.(path) else 0
