module Engine = Tango_sim.Engine
module Rng = Tango_sim.Rng
module Spec = Tango_faults.Spec

(* Tango-of-N: one engine, one topology, N PoPs, stitched multi-hop
   routes, arborescence failover, membership gossip. [run] is the only
   entry point: build the world, arm mesh-level fault specs, drive
   seeded flows, and return a flat result record — everything a pure
   function of the parameters. *)

type result = {
  pops : int;
  edges : int;
  trees : int;
  diversity : float;
  flows : int;
  sent : int;
  delivered : int;
  dropped : int;
  reroutes : int;
  max_rotations : int;
  killed : int; (* target PoP of a relay-kill, -1 when none *)
  affected_flows : int; (* flows transiting the killed PoP / cut region *)
  detect_ms : float; (* slowest neighbor hello-timeout, -1 when n/a *)
  recovery_ms : float; (* slowest affected flow back in service, -1 n/a *)
  unrecovered : int; (* affected flows never delivered again *)
  discovery_after_fault : int; (* stitch computations after onset: the O(1) claim *)
  gossip_msgs : int;
  hello_msgs : int;
  convergence_ms : float; (* last live PoP learned of the death, -1 n/a *)
  distinct_digests : int; (* 1 = membership views converged at end *)
  attest : bool; (* attestation on for this run *)
  misbehaving : int; (* armed Byzantine relay, -1 when none *)
  rejected : int; (* bad-verdict rejections at destinations *)
  wrong_path : int; (* judged deliveries/rejections per verdict *)
  truncated : int;
  replayed : int;
  forged : int;
  excused : int; (* attested frames delivered unjudged (arbor failover) *)
  first_verdict_ms : float; (* onset -> first bad verdict, -1 n/a *)
  quarantines : int;
  readmissions : int;
  quarantined_target : bool; (* armed relay served a quarantine *)
  false_quarantines : int; (* ever-quarantined pops besides the target *)
  fingerprint : string;
}

(* Stitch a multi-hop relay route src->dst by walking arborescence 0:
   the same per-pair segments discovery would compose, in array form.
   Returns the entry count; hops.(count-1) = dst. Routes longer than
   the stack bound keep their first [max_segments - 1] hops and fall
   back to arborescence steering for the tail. *)
let stitch topo arbor ~src ~dst ~flow ~hops ~seg_paths =
  let count = ref 0 in
  let pop = ref src in
  let budget = Arbor.pops arbor in
  let steps = ref 0 in
  while !pop <> dst && !steps <= budget do
    let nh = Arbor.next_hop arbor ~dst ~tree:0 ~pop:!pop in
    if nh < 0 then steps := budget + 1 (* unreachable: emit dst-only *)
    else begin
      if !count < Segment.max_segments - 1 then begin
        hops.(!count) <- nh;
        let s = Mtopo.slot topo ~src:!pop ~dst:nh in
        seg_paths.(!count) <- flow mod Mtopo.slot_paths topo s;
        incr count
      end;
      pop := nh;
      incr steps
    end
  done;
  if !count = 0 || hops.(!count - 1) <> dst then begin
    hops.(!count) <- dst;
    seg_paths.(!count) <- 0;
    incr count
  end;
  !count

let run ?(pops = 16) ?(degree = 4) ?(trees = 3) ?(seed = 42) ?flows
    ?(duration_s = 12.0) ?(pkt_interval_s = 0.02) ?(specs = [])
    ?(attest = false) ?(quarantine_s = 2.0) ?(suspect_threshold = 4) () =
  let nflows = match flows with Some f -> f | None -> min (2 * pops) 128 in
  if nflows < 1 then Err.invalid "Mesh.run: need at least one flow";
  if not (duration_s > 0.0) then Err.invalid "Mesh.run: non-positive duration";
  if not (pkt_interval_s > 0.0) then
    Err.invalid "Mesh.run: non-positive packet interval";
  List.iter
    (fun (s : Spec.t) ->
      Spec.validate s;
      if not (Spec.targets_mesh s.Spec.kind) then
        Err.invalid "Mesh.run: %s is a pairwise fault; use Inject.arm"
          (Spec.kind_to_string s.Spec.kind);
      if s.Spec.start_s +. s.Spec.duration_s >= duration_s then
        Err.invalid "Mesh.run: fault window %g+%g must close before %g"
          s.Spec.start_s s.Spec.duration_s duration_s)
    specs;
  let engine = Engine.create ~seed () in
  let topo = Mtopo.generate ~degree ~pops ~seed () in
  let arbor = Arbor.build ~k:trees topo in
  let gossip = Gossip.create ~topo ~engine () in
  let relay = Relay.create ~topo ~arbor ~engine ~gossip ~quarantine_s () in
  (* Seeded flow endpoints, then stitched routes (each stitch is one
     "discovery" unit of work — the counter the O(1) gate watches). *)
  let rng = Engine.rng engine in
  let flow_src = Array.make nflows 0 and flow_dst = Array.make nflows 0 in
  let flow_hops = Array.make_matrix nflows Segment.max_segments 0 in
  let flow_paths = Array.make_matrix nflows Segment.max_segments 0 in
  let flow_count = Array.make nflows 0 in
  let flow_seq = Array.make nflows 0 in
  let recovered_at = Array.make nflows nan in
  for f = 0 to nflows - 1 do
    let src = Rng.int rng pops in
    let d = 1 + Rng.int rng (pops - 1) in
    let dst = (src + d) mod pops in
    flow_src.(f) <- src;
    flow_dst.(f) <- dst;
    flow_count.(f) <-
      stitch topo arbor ~src ~dst ~flow:f ~hops:flow_hops.(f)
        ~seg_paths:flow_paths.(f);
    Relay.note_discovery relay
  done;
  (* Attestation: the destination-side verifier learns each flow's
     committed route at stitch time. Only fully-stitched routes commit
     — a stitch that overflowed the stack (or emitted a bare dst for an
     unreachable pair) has a non-adjacent entry somewhere, and its
     frames arrive excused via arborescence steering. *)
  if attest then begin
    let att = Attest.create ~suspect_threshold ~pops ~flows:nflows () in
    for f = 0 to nflows - 1 do
      let contiguous = ref true in
      let prev = ref flow_src.(f) in
      for i = 0 to flow_count.(f) - 1 do
        if Mtopo.slot topo ~src:!prev ~dst:flow_hops.(f).(i) < 0 then
          contiguous := false;
        prev := flow_hops.(f).(i)
      done;
      if !contiguous then
        Attest.commit att ~flow:f ~src:flow_src.(f) ~hops:flow_hops.(f)
          ~count:flow_count.(f)
    done;
    Relay.set_attest relay att
  end;
  let mark_s = ref infinity in
  Relay.set_on_deliver relay (fun ~flow ~seq:_ ~tree:_ ~now ->
      if now >= !mark_s && Float.is_nan recovered_at.(flow) then
        recovered_at.(flow) <- now);
  (* Fault arming. Relay-kill target: the spec's [path] when positive,
     otherwise the PoP relaying the most stitched routes (intermediate
     hops only; ties to the lowest id). *)
  let transit_load = Array.make pops 0 in
  for f = 0 to nflows - 1 do
    for i = 0 to flow_count.(f) - 2 do
      transit_load.(flow_hops.(f).(i)) <- transit_load.(flow_hops.(f).(i)) + 1
    done
  done;
  let auto_target () =
    let best = ref 0 in
    for p = 1 to pops - 1 do
      if transit_load.(p) > transit_load.(!best) then best := p
    done;
    !best
  in
  let killed = ref (-1) in
  let misbehaving = ref (-1) in
  let mis_start = ref nan in
  let affected = ref [] in
  let discovery_at_mark = ref 0 in
  let note_mark now =
    if now < !mark_s then begin
      mark_s := now;
      discovery_at_mark := Relay.discovery_msgs relay;
      Array.fill recovered_at 0 nflows nan
    end
  in
  let flow_transits f target =
    let hit = ref false in
    for i = 0 to flow_count.(f) - 2 do
      if flow_hops.(f).(i) = target then hit := true
    done;
    !hit && flow_src.(f) <> target && flow_dst.(f) <> target
  in
  List.iter
    (fun (s : Spec.t) ->
      match s.Spec.kind with
      | Spec.Relay_kill ->
          let target = if s.Spec.path > 0 then s.Spec.path else auto_target () in
          if target >= pops then
            Err.invalid "Mesh.run: relay-kill target %d outside %d pops" target
              pops;
          Engine.schedule_at engine ~time:s.Spec.start_s (fun engine ->
              let now = Engine.now engine in
              note_mark now;
              killed := target;
              for f = 0 to nflows - 1 do
                if flow_transits f target then affected := f :: !affected
              done;
              Relay.kill_pop relay ~pop:target);
          Engine.schedule_at engine
            ~time:(s.Spec.start_s +. s.Spec.duration_s)
            (fun _ -> Relay.revive_pop relay ~pop:target)
      | Spec.Mesh_partition { region } ->
          if region >= Mtopo.regions then
            Err.invalid "Mesh.run: partition region %d outside %d regions" region
              Mtopo.regions;
          Engine.schedule_at engine ~time:s.Spec.start_s (fun engine ->
              note_mark (Engine.now engine);
              for f = 0 to nflows - 1 do
                let sr = Mtopo.region topo flow_src.(f)
                and dr = Mtopo.region topo flow_dst.(f) in
                if (sr = region) <> (dr = region) then affected := f :: !affected
              done;
              Relay.cut_region relay ~region);
          Engine.schedule_at engine
            ~time:(s.Spec.start_s +. s.Spec.duration_s)
            (fun _ -> Relay.heal_region relay ~region)
      | Spec.Relay_detour | Spec.Relay_tamper _ | Spec.Relay_replay ->
          let target = if s.Spec.path > 0 then s.Spec.path else auto_target () in
          if target >= pops then
            Err.invalid "Mesh.run: misbehaving-relay target %d outside %d pops"
              target pops;
          let m =
            match s.Spec.kind with
            | Spec.Relay_detour -> Relay.Detour
            | Spec.Relay_tamper { truncate = true } -> Relay.Truncate
            | Spec.Relay_tamper { truncate = false } -> Relay.Forge
            | _ -> Relay.Replay
          in
          let stop = s.Spec.start_s +. s.Spec.duration_s in
          Engine.schedule_at engine ~time:s.Spec.start_s (fun engine ->
              let now = Engine.now engine in
              note_mark now;
              misbehaving := target;
              if Float.is_nan !mis_start then mis_start := now;
              for f = 0 to nflows - 1 do
                if flow_transits f target then affected := f :: !affected
              done;
              Relay.set_misbehavior relay ~pop:target ~until:stop m);
          Engine.schedule_at engine ~time:stop (fun _ ->
              Relay.set_misbehavior relay ~pop:target Relay.Honest)
      | _ -> assert false)
    specs;
  (* Control plane and flows. Flow starts stagger by a millisecond so a
     128-flow mesh never bursts its sends into one instant. *)
  Relay.start_hellos relay ~until:duration_s;
  Gossip.start gossip ~pop_alive:(Relay.pop_alive relay) ~until:duration_s;
  for f = 0 to nflows - 1 do
    let start = 0.5 +. (0.001 *. float_of_int (f mod 100)) in
    Engine.schedule_at engine ~time:start (fun engine ->
        Engine.every engine ~interval:pkt_interval_s ~until:duration_s
          (fun _ ->
            Relay.send relay ~src:flow_src.(f) ~flow:f ~seq:flow_seq.(f)
              ~hops:flow_hops.(f) ~seg_paths:flow_paths.(f)
              ~count:flow_count.(f);
            flow_seq.(f) <- flow_seq.(f) + 1))
  done;
  Engine.run ~until:duration_s engine;
  (* Post-run metrics. *)
  let detect_ms =
    if !killed >= 0 then Relay.detection_ms_after relay ~pop:!killed ~after:!mark_s
    else -1.0
  in
  let recovery_ms = ref (-1.0) in
  let unrecovered = ref 0 in
  List.iter
    (fun f ->
      if Float.is_nan recovered_at.(f) then incr unrecovered
      else recovery_ms := Float.max !recovery_ms ((recovered_at.(f) -. !mark_s) *. 1000.0))
    !affected;
  let convergence_ms =
    if !killed >= 0 then begin
      let at = Gossip.all_dead_at gossip ~subject:!killed in
      if Float.is_nan at then -1.0 else (at -. !mark_s) *. 1000.0
    end
    else -1.0
  in
  {
    pops;
    edges = Mtopo.edges topo / 2;
    trees;
    diversity = Arbor.diversity arbor;
    flows = nflows;
    sent = Relay.sent relay;
    delivered = Relay.delivered relay;
    dropped = Relay.dropped relay;
    reroutes = Relay.reroutes relay;
    max_rotations = Relay.max_rotations relay;
    killed = !killed;
    affected_flows = List.length !affected;
    detect_ms;
    recovery_ms = !recovery_ms;
    unrecovered = !unrecovered;
    discovery_after_fault =
      (if Float.is_finite !mark_s then Relay.discovery_msgs relay - !discovery_at_mark
       else 0);
    gossip_msgs = Gossip.msgs gossip;
    hello_msgs = Relay.hello_msgs relay;
    convergence_ms;
    distinct_digests = Gossip.distinct_digests gossip ~pop_alive:(Relay.pop_alive relay);
    attest;
    misbehaving = !misbehaving;
    rejected = Relay.attest_rejected relay;
    wrong_path = Relay.verdict_count relay Attest.Wrong_path;
    truncated = Relay.verdict_count relay Attest.Truncated;
    replayed = Relay.verdict_count relay Attest.Replayed;
    forged = Relay.verdict_count relay Attest.Forged;
    excused = Relay.attest_excused relay;
    first_verdict_ms =
      (let fv = Relay.first_verdict_s relay in
       if Float.is_nan fv || Float.is_nan !mis_start then -1.0
       else (fv -. !mis_start) *. 1000.0);
    quarantines = Relay.quarantines relay;
    readmissions = Relay.readmissions relay;
    quarantined_target =
      !misbehaving >= 0 && Relay.ever_quarantined relay ~pop:!misbehaving;
    false_quarantines =
      (let n = ref 0 in
       for p = 0 to pops - 1 do
         if p <> !misbehaving && Relay.ever_quarantined relay ~pop:p then incr n
       done;
       !n);
    fingerprint = Relay.fingerprint relay;
  }
