module Engine = Tango_sim.Engine
module Fnv = Tango_net.Fnv
module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace

(* The mesh dataplane: every PoP's forwarding state lives in flat
   arrays indexed by PoP id or CSR slot — one process hosts hundreds of
   PoPs with no per-pair worlds. Forwarding consumes the segment stack
   hop by hop; when the stacked next hop is locally dead (hello
   timeout) the frame flips to arborescence mode and failover is a
   rotation to the next precomputed tree: an O(1) probe bounded by the
   tree count, never a rediscovery.

   Liveness is local knowledge only: a PoP trusts its own hello view
   of its neighbors and nothing else. Packets in flight toward a
   not-yet-detected dead relay are lost — that detection window is
   exactly the recovery latency E15 measures. *)

let m_sent = Metric.counter ~help:"Mesh frames sent" "mesh_sent_total"
let m_delivered = Metric.counter ~help:"Mesh frames delivered" "mesh_delivered_total"
let m_dropped = Metric.counter ~help:"Mesh frames dropped" "mesh_dropped_total"

let m_reroutes =
  Metric.counter ~help:"Mesh arborescence rotations (O(1) failovers)"
    "mesh_reroutes_total"

let m_rejected =
  Metric.counter ~help:"Mesh frames rejected by attestation verdicts"
    "mesh_attest_rejected_total"

let m_quarantines =
  Metric.counter ~help:"Relay quarantines applied from attest verdicts"
    "mesh_quarantines_total"

let m_readmissions =
  Metric.counter ~help:"Quarantined relays readmitted after backoff"
    "mesh_readmissions_total"

let k_verdict = Trace.kind "mesh.attest_verdict"
let k_quarantine = Trace.kind "mesh.quarantine"
let k_readmit = Trace.kind "mesh.readmit"

type misbehavior = Honest | Detour | Forge | Truncate | Replay

let misbehavior_code = function
  | Honest -> 0
  | Detour -> 1
  | Forge -> 2
  | Truncate -> 3
  | Replay -> 4

(* Fingerprint code for a delivered frame that arbor failover excused
   from judgment (the Attest verdict codes stop at 4). *)
let excused_code = 5

(* A re-quarantined relay serves quarantine_s * 2^(n-1), capped. *)
let quarantine_cap_s = 60.0

(* Each PoP sends hellos every [hello_interval_s]; a neighbor silent
   for [dead_after_s] (four hellos) is dead. *)
let hello_interval_s = 0.025

let dead_after_s = 0.1

type t = {
  topo : Mtopo.t;
  arbor : Arbor.t;
  engine : Engine.t;
  gossip : Gossip.t;
  trees : int;
  pop_up : Bytes.t; (* per pop: ground truth *)
  link_up : Bytes.t; (* per slot: ground truth *)
  heard_s : float array; (* per slot (u->v): when v last heard u's hello *)
  nbr_alive : Bytes.t; (* per slot (u->v): v's local view of u *)
  suspected_at : float array; (* per slot: latest alive->dead transition *)
  tree_pref : int array; (* per pop: the tree its own sends start on *)
  scratch : Segment.stack;
  quarantine_s : float;
  mutable att : Attest.t option; (* verifier; None = attestation off *)
  mis : Bytes.t; (* per pop: misbehavior code (fault injection) *)
  quarantined : Bytes.t; (* per pop: currently quarantined *)
  quar_until : float array; (* per pop: quarantine release time *)
  quar_times : int array; (* per pop: quarantine episodes (backoff exp) *)
  rep_buf : Bytes.t; (* replaying relay's captured frame *)
  verdicts : int array; (* judged deliveries per verdict code *)
  mutable rep_len : int;
  mutable rep_until : float;
  mutable on_deliver : flow:int -> seq:int -> tree:int -> now:float -> unit;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable rejected : int;
  mutable excused : int;
  mutable quarantines : int;
  mutable readmissions : int;
  mutable first_verdict_s : float;
  mutable reroutes : int;
  mutable max_rot : int;
  mutable discovery_msgs : int;
  mutable hello_msgs : int;
  mutable fp_sum : int;
  mutable fp_xor : int;
}

let create ?(quarantine_s = 2.0) ~topo ~arbor ~engine ~gossip () =
  if not (quarantine_s > 0.0) then
    Err.invalid "Relay.create: non-positive quarantine duration";
  let n = Mtopo.pops topo in
  let slots = Mtopo.edges topo in
  let trees = Arbor.k arbor in
  {
    topo;
    arbor;
    engine;
    gossip;
    trees;
    pop_up = Bytes.make n '\001';
    link_up = Bytes.make slots '\001';
    heard_s = Array.make slots 0.0;
    nbr_alive = Bytes.make slots '\001';
    suspected_at = Array.make slots nan;
    tree_pref = Array.make n 0;
    scratch = Segment.create_stack ();
    quarantine_s;
    att = None;
    mis = Bytes.make n '\000';
    quarantined = Bytes.make n '\000';
    quar_until = Array.make n neg_infinity;
    quar_times = Array.make n 0;
    rep_buf = Bytes.make Segment.max_header_bytes '\000';
    verdicts = Array.make 5 0;
    rep_len = 0;
    rep_until = 0.0;
    on_deliver = (fun ~flow:_ ~seq:_ ~tree:_ ~now:_ -> ());
    sent = 0;
    delivered = 0;
    dropped = 0;
    rejected = 0;
    excused = 0;
    quarantines = 0;
    readmissions = 0;
    first_verdict_s = nan;
    reroutes = 0;
    max_rot = 0;
    discovery_msgs = 0;
    hello_msgs = 0;
    fp_sum = Fnv.digest_seed;
    fp_xor = 0;
  }

let set_on_deliver t f = t.on_deliver <- f
let pop_alive t pop = Bytes.get_uint8 t.pop_up pop = 1
let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let reroutes t = t.reroutes
let max_rotations t = t.max_rot
let discovery_msgs t = t.discovery_msgs
let hello_msgs t = t.hello_msgs
let note_discovery t = t.discovery_msgs <- t.discovery_msgs + 1
let set_attest t att = t.att <- Some att
let attest_rejected t = t.rejected
let attest_excused t = t.excused
let verdict_count t v = t.verdicts.(Attest.verdict_code v)
let quarantines t = t.quarantines
let readmissions t = t.readmissions
let ever_quarantined t ~pop = t.quar_times.(pop) > 0
let first_verdict_s t = t.first_verdict_s

let set_misbehavior ?(until = infinity) t ~pop m =
  if pop < 0 || pop >= Mtopo.pops t.topo then
    Err.invalid "Relay.set_misbehavior: pop %d" pop;
  Bytes.set_uint8 t.mis pop (misbehavior_code m);
  if m = Replay then t.rep_until <- until

let fingerprint t =
  Printf.sprintf "%015x-%015x"
    (t.fp_sum land 0x0FFFFFFFFFFFFFFF)
    (t.fp_xor land 0x0FFFFFFFFFFFFFFF)

(* ------------------------------------------------------------------ *)
(* Fault surface: ground-truth toggles driven by Mesh's scenario
   arming. Detection still goes through hellos — nothing here touches
   any PoP's local view. *)

let kill_pop t ~pop =
  if pop < 0 || pop >= Mtopo.pops t.topo then Err.invalid "Relay.kill_pop: pop %d" pop;
  Bytes.set_uint8 t.pop_up pop 0

let revive_pop t ~pop =
  if pop < 0 || pop >= Mtopo.pops t.topo then Err.invalid "Relay.revive_pop: pop %d" pop;
  Bytes.set_uint8 t.pop_up pop 1

let set_region_links t ~region ~up =
  if region < 0 || region >= Mtopo.regions then
    Err.invalid "Relay: region %d out of range" region;
  let v = if up then 1 else 0 in
  let n = Mtopo.pops t.topo in
  for i = 0 to n - 1 do
    if Mtopo.region t.topo i = region then
      for s = Mtopo.slot_base t.topo i to
              Mtopo.slot_base t.topo i + Mtopo.degree t.topo i - 1 do
        if Mtopo.region t.topo (Mtopo.slot_dst t.topo s) <> region then begin
          Bytes.set_uint8 t.link_up s v;
          Bytes.set_uint8 t.link_up (Mtopo.slot_rev t.topo s) v
        end
      done
  done

let cut_region t ~region = set_region_links t ~region ~up:false
let heal_region t ~region = set_region_links t ~region ~up:true

(* ------------------------------------------------------------------ *)
(* Quarantine: the verdict-driven analogue of a probe-detected fault.
   A convicted relay is banned as a forwarding target — [slot_viable]
   treats it like a dead neighbor, so live traffic flips to
   arborescence steering around it, the same O(1) failover that covers
   honest crashes. Durations back off exponentially per episode. A
   PoP's release time only ever moves later, and readmission, scheduled
   at the release time, re-checks it against the clock. *)

let readmit t ~pop engine =
  let now = Engine.now engine in
  if Bytes.get_uint8 t.quarantined pop = 1 && t.quar_until.(pop) <= now then begin
    Bytes.set_uint8 t.quarantined pop 0;
    t.readmissions <- t.readmissions + 1;
    Metric.incr m_readmissions;
    Trace.record Trace.default ~now ~kind:k_readmit pop t.quar_times.(pop)
  end

let quarantine t ~pop ~now =
  if Bytes.get_uint8 t.quarantined pop = 0 then begin
    Bytes.set_uint8 t.quarantined pop 1;
    t.quarantines <- t.quarantines + 1;
    t.quar_times.(pop) <- t.quar_times.(pop) + 1;
    (match t.att with
    | Some att -> Attest.reset_suspicion att ~pop
    | None -> ());
    let dur =
      Float.min quarantine_cap_s
        (t.quarantine_s *. (2.0 ** float_of_int (t.quar_times.(pop) - 1)))
    in
    t.quar_until.(pop) <- Float.max t.quar_until.(pop) (now +. dur);
    Metric.incr m_quarantines;
    Trace.record Trace.default ~now ~kind:k_quarantine pop t.quar_times.(pop);
    Engine.schedule t.engine ~delay:dur (fun engine -> readmit t ~pop engine)
  end

(* ------------------------------------------------------------------ *)
(* Hellos: one timer per PoP. A tick first re-evaluates the PoP's view
   of each neighbor against [dead_after_s], then stamps fresh hellos
   into the neighbors' hearing slots (written at send time with the
   link latency added — no per-hello event, which keeps a 128-PoP mesh
   at tens of events per virtual second instead of thousands). *)

let tick t pop engine =
  if Bytes.get_uint8 t.pop_up pop = 1 then begin
    let now = Engine.now engine in
    let base = Mtopo.slot_base t.topo pop in
    for s = base to base + Mtopo.degree t.topo pop - 1 do
      let u = Mtopo.slot_dst t.topo s in
      (* [pop]'s view of [u] lives on the reverse slot (u->pop). *)
      let rs = Mtopo.slot_rev t.topo s in
      let alive = now -. t.heard_s.(rs) <= dead_after_s in
      let cur = Bytes.get_uint8 t.nbr_alive rs in
      if alive && cur = 0 then begin
        Bytes.set_uint8 t.nbr_alive rs 1;
        Gossip.observe t.gossip ~observer:pop ~subject:u ~alive:true ~now
          ~pop_alive:(pop_alive t)
      end
      else if (not alive) && cur = 1 then begin
        Bytes.set_uint8 t.nbr_alive rs 0;
        t.suspected_at.(rs) <- now;
        Gossip.observe t.gossip ~observer:pop ~subject:u ~alive:false ~now
          ~pop_alive:(pop_alive t)
      end;
      if Bytes.get_uint8 t.link_up s = 1 then begin
        t.heard_s.(s) <- now +. (Mtopo.slot_lat_ms t.topo s /. 1000.0);
        t.hello_msgs <- t.hello_msgs + 1
      end
    done
  end

let start_hellos t ~until =
  for pop = 0 to Mtopo.pops t.topo - 1 do
    Engine.every t.engine ~interval:hello_interval_s ~until (tick t pop)
  done

(* Detection latency for a killed PoP: the slowest of its live
   neighbors to flip their view after [after]. -1 when none did. *)
let detection_ms_after t ~pop ~after =
  let worst = ref (-1.0) in
  for s = Mtopo.slot_base t.topo pop to
          Mtopo.slot_base t.topo pop + Mtopo.degree t.topo pop - 1 do
    let v = Mtopo.slot_dst t.topo s in
    if Bytes.get_uint8 t.pop_up v = 1 && t.suspected_at.(s) >= after then
      worst := Float.max !worst ((t.suspected_at.(s) -. after) *. 1000.0)
  done;
  !worst

(* ------------------------------------------------------------------ *)
(* Forwarding. *)

(* Is the directed slot usable from the forwarding PoP's local point of
   view? Link administratively up, the neighbor's hellos fresh, and the
   neighbor not serving an attestation quarantine (all-zero when
   attestation is off, so the check is behavior-neutral there). *)
let[@hot] slot_viable t s =
  Bytes.get_uint8 t.link_up s = 1
  && Bytes.get_uint8 t.nbr_alive (Mtopo.slot_rev t.topo s) = 1
  && Bytes.get_uint8 t.quarantined (Mtopo.slot_dst t.topo s) = 0

(* Next slot from the segment stack, or -1 when the stack is exhausted
   or its next hop is locally dead. *)
let[@hot] stack_next t pop st =
  if st.Segment.flags land Segment.flag_arbor = 0 && st.Segment.top < st.Segment.count
  then begin
    let cand = st.Segment.hops.(st.Segment.top) in
    let s = Mtopo.slot t.topo ~src:pop ~dst:cand in
    if s >= 0 && slot_viable t s then s else -1
  end
  else -1

(* Arborescence failover: probe trees in circular order starting at the
   tree stamped in the packet. Each tree is an in-tree, so a packet
   keeps the same tree until a locally-dead next hop forces a rotation.
   Nothing remembers a dead tree: the next packet probes it again, so a
   tree whose next hop is alive again forwards at once. At most [trees]
   probes — the O(1) bound the E15 gate asserts. Returns the chosen
   slot (st.tree updated, and the PoP's own sends start there) or -1. *)
let[@hot] arbor_next t pop st =
  let pref = st.Segment.tree in
  let chosen = ref (-1) in
  let rot = ref 0 in
  let i = ref 0 in
  while !chosen < 0 && !i < t.trees do
    let tree = (pref + !i) mod t.trees in
    let nh = Arbor.next_hop t.arbor ~dst:st.Segment.dst ~tree ~pop in
    if nh >= 0 then begin
      let s = Mtopo.slot t.topo ~src:pop ~dst:nh in
      if s >= 0 && slot_viable t s then begin
        chosen := s;
        st.Segment.tree <- tree
      end
      else incr rot
    end
    else incr rot;
    incr i
  done;
  if !rot > 0 then begin
    t.reroutes <- t.reroutes + !rot;
    if !rot > t.max_rot then t.max_rot <- !rot;
    Gossip.bump_table_version t.gossip ~pop
  end;
  if !chosen >= 0 then t.tree_pref.(pop) <- st.Segment.tree;
  !chosen

(* [verdict] -1 = unjudged (attestation off): mixed exactly as before
   the attest extension, so attestation-off fingerprints are
   byte-identical to the pre-attest ones. *)
let[@hot] mix_delivery t ~flow ~seq ~tree ~budget ~verdict ~now =
  let h = Fnv.mix t.fp_sum flow in
  let h = Fnv.mix h seq in
  let h = Fnv.mix h ((tree lsl 8) lor budget) in
  let h = Fnv.mix h (int_of_float (now *. 1e6)) in
  let h = if verdict >= 0 then Fnv.mix h verdict else h in
  t.fp_sum <- h;
  t.fp_xor <- t.fp_xor lxor h

let drop t =
  t.dropped <- t.dropped + 1;
  Metric.incr m_dropped

let deliver t st ~verdict ~now =
  t.delivered <- t.delivered + 1;
  Metric.incr m_delivered;
  mix_delivery t ~flow:st.Segment.flow ~seq:st.Segment.seq
    ~tree:st.Segment.tree ~budget:st.Segment.hop_budget ~verdict ~now;
  t.on_deliver ~flow:st.Segment.flow ~seq:st.Segment.seq
    ~tree:st.Segment.tree ~now

(* A bad verdict rejects the frame — counted as [rejected], neither
   delivered nor dropped — and feeds quarantine: localized evidence
   convicts the named culprit directly; unlocalized evidence bumped
   suspicion inside {!Attest.judge}, so sweep the route's intermediates
   for any that just crossed the threshold. *)
let reject t att st ~code ~now =
  t.rejected <- t.rejected + 1;
  Metric.incr m_rejected;
  if Float.is_nan t.first_verdict_s then t.first_verdict_s <- now;
  let culprit = Attest.last_culprit att in
  Trace.record Trace.default ~now ~kind:k_verdict code culprit;
  if culprit >= 0 then quarantine t ~pop:culprit ~now
  else begin
    let flow = st.Segment.flow in
    let n = Attest.route_len att ~flow in
    for i = 1 to n - 1 do
      let p = Attest.route_hop att ~flow ~i in
      if
        Bytes.get_uint8 t.quarantined p = 0
        && Attest.suspicion att ~pop:p >= Attest.suspect_threshold att
      then quarantine t ~pop:p ~now
    done
  end

(* Deterministic stand-in next hop for the detour fault: the first
   neighbor that is not the stacked next hop. *)
let detour_buddy t pop st =
  let base = Mtopo.slot_base t.topo pop in
  let deg = Mtopo.degree t.topo pop in
  let nxt =
    if st.Segment.top < st.Segment.count then st.Segment.hops.(st.Segment.top)
    else -1
  in
  let b = ref (Mtopo.slot_dst t.topo base) in
  let i = ref 1 in
  while !b = nxt && !i < deg do
    b := Mtopo.slot_dst t.topo (base + !i);
    incr i
  done;
  !b

let rec forward t ~pop ~now frame =
  let st = t.scratch in
  if not (Segment.decode_into ~buf:frame ~off:0 ~len:(Bytes.length frame) st)
  then drop t
  else if st.Segment.dst = pop then begin
    match t.att with
    | Some att when st.Segment.flags land Segment.flag_attest <> 0 ->
        if st.Segment.flags land Segment.flag_arbor <> 0 then begin
          (* Arbor failover re-steered this frame off its committed
             route, so the evidence cannot match by construction.
             Delivered excused, never judged — the §15 caveat. *)
          t.excused <- t.excused + 1;
          deliver t st ~verdict:excused_code ~now
        end
        else begin
          let v = Attest.judge att st in
          let code = Attest.verdict_code v in
          t.verdicts.(code) <- t.verdicts.(code) + 1;
          if v = Attest.Verified then deliver t st ~verdict:code ~now
          else reject t att st ~code ~now
        end
    | _ -> deliver t st ~verdict:(-1) ~now
  end
  else if st.Segment.hop_budget <= 0 then drop t
  else begin
    let m = Bytes.get_uint8 t.mis pop in
    (* A replaying relay captures the first transit frame it sees
       as-arrived and re-injects byte copies of it at itself every
       100 ms — each copy then takes the honest tail of the route and
       presents a pristine chain with a spent (flow, seq). Frames the
       relay itself sourced are not eligible: the replayer must sit on
       the captured flow's route as an intermediate, which is what lets
       the destination's suspicion scoring eventually reach it. *)
    if
      m = 4 && t.rep_len = 0 && st.Segment.src <> pop
      && Bytes.length frame <= Bytes.length t.rep_buf
    then begin
      t.rep_len <- Bytes.length frame;
      Bytes.blit frame 0 t.rep_buf 0 t.rep_len;
      let len = t.rep_len in
      Engine.every t.engine ~interval:0.1 ~until:t.rep_until (fun engine ->
          if Bytes.get_uint8 t.mis pop = 4 then
            arrive t ~pop engine (Bytes.sub t.rep_buf 0 len))
    end;
    st.Segment.hop_budget <- st.Segment.hop_budget - 1;
    let attest_on = st.Segment.flags land Segment.flag_attest <> 0 in
    if m = 1 then begin
      (* Detour: fold a neighbor off the committed route as if the
         packet transited it, and burn the extra physical hop. *)
      if attest_on then
        st.Segment.digest <-
          Attest.fold_hop st.Segment.digest ~hop:(detour_buddy t pop st)
            ~tree:st.Segment.tree ~ttl:st.Segment.hop_budget;
      st.Segment.hop_budget <- st.Segment.hop_budget - 1
    end;
    if attest_on then
      st.Segment.digest <-
        Attest.fold_hop st.Segment.digest ~hop:pop ~tree:st.Segment.tree
          ~ttl:st.Segment.hop_budget;
    if m = 2 && attest_on then
      (* Tamper: garble the evidence after folding — the chain stops
         matching any honest fold of the committed route. *)
      st.Segment.digest <- Fnv.mix st.Segment.digest 0xBADC0DE;
    if m = 3 then begin
      (* Truncate: short-cut the rest of the overlay route through the
         underlay, arriving directly at the destination on a fixed
         2 ms path that folds no further evidence. *)
      Segment.patch_cursor ~buf:frame ~off:0 st;
      let dst = st.Segment.dst in
      Engine.schedule t.engine ~delay:0.002 (fun engine ->
          arrive t ~pop:dst engine frame)
    end
    else begin
      let s = stack_next t pop st in
      let s =
        if s >= 0 then begin
          st.Segment.top <- st.Segment.top + 1;
          s
        end
        else begin
          (* Stack unusable: flip to arborescence steering. The flip
             itself is a reroute when a live stack entry was abandoned. *)
          if
            st.Segment.flags land Segment.flag_arbor = 0
            && st.Segment.top < st.Segment.count
          then begin
            t.reroutes <- t.reroutes + 1;
            Metric.incr m_reroutes
          end;
          st.Segment.flags <- st.Segment.flags lor Segment.flag_arbor;
          arbor_next t pop st
        end
      in
      if s < 0 then drop t
      else begin
        Segment.patch_cursor ~buf:frame ~off:0 st;
        let nh = Mtopo.slot_dst t.topo s in
        let delay = Mtopo.slot_lat_ms t.topo s /. 1000.0 in
        Engine.schedule t.engine ~delay (fun engine -> arrive t ~pop:nh engine frame)
      end
    end
  end

and arrive t ~pop engine frame =
  if Bytes.get_uint8 t.pop_up pop = 1 then
    forward t ~pop ~now:(Engine.now engine) frame
  else drop t

let send t ~src ~flow ~seq ~hops ~seg_paths ~count =
  if count < 1 || count > Segment.max_segments then
    Err.invalid "Relay.send: %d segments outside [1,%d]" count Segment.max_segments;
  let st = t.scratch in
  st.Segment.tree <- t.tree_pref.(src);
  st.Segment.top <- 0;
  st.Segment.src <- src;
  st.Segment.dst <- hops.(count - 1);
  st.Segment.flow <- flow;
  st.Segment.seq <- seq;
  st.Segment.count <- count;
  st.Segment.hop_budget <- 255;
  (match t.att with
  | Some _ ->
      st.Segment.flags <- Segment.flag_attest;
      st.Segment.digest <-
        Attest.chain_seed ~flow ~seq ~src ~dst:st.Segment.dst
  | None ->
      st.Segment.flags <- 0;
      st.Segment.digest <- 0);
  Array.blit hops 0 st.Segment.hops 0 count;
  Array.blit seg_paths 0 st.Segment.seg_path 0 count;
  let frame = Bytes.create (Segment.frame_bytes st) in
  ignore (Segment.encode_into ~buf:frame ~off:0 st);
  t.sent <- t.sent + 1;
  Metric.incr m_sent;
  if Bytes.get_uint8 t.pop_up src = 1 then
    forward t ~pop:src ~now:(Engine.now t.engine) frame
  else drop t
