module Engine = Tango_sim.Engine
module Fnv = Tango_net.Fnv
module Metric = Tango_obs.Metric

(* lib/ctrl's pair channel generalized to a mesh: instead of one
   heartbeat per pair, every PoP keeps a membership view (who it thinks
   is alive, with a last-write-wins stamp per fact) plus a version
   counter for its own routing table, and anti-entropy rounds push the
   view to a deterministic rotation of neighbors. Fanout targets are a
   pure function of (round, fanout, degree) — no random peer sampling —
   so seeded runs gossip identically. Digests fold the view and table
   version through the same FNV-1a primitives as the pairwise channel,
   keeping pair and mesh digests one hash family. *)

let m_msgs = Metric.counter ~help:"Mesh gossip messages delivered" "mesh_gossip_msgs_total"

(* Rows each live PoP pushes per round, and the round interval. *)
let fanout = 2

let interval_s = 0.1

type t = {
  topo : Mtopo.t;
  engine : Engine.t;
  view : Bytes.t; (* observer*pops + subject: 1 = alive *)
  stamp : float array; (* version stamp (virtual time) of each fact *)
  table_version : int array; (* per pop, bumped on arborescence rotation *)
  all_dead_at : float array; (* per subject: when the last live view agreed *)
  mutable round : int;
  mutable msgs : int;
}

let create ~topo ~engine () =
  let n = Mtopo.pops topo in
  {
    topo;
    engine;
    view = Bytes.make (n * n) '\001';
    stamp = Array.make (n * n) 0.0;
    table_version = Array.make n 0;
    all_dead_at = Array.make n nan;
    round = 0;
    msgs = 0;
  }

let msgs t = t.msgs

let bump_table_version t ~pop = t.table_version.(pop) <- t.table_version.(pop) + 1
let all_dead_at t ~subject = t.all_dead_at.(subject)

(* Record the instant the last live observer learned [subject] is down
   — the convergence metric E15 reports. [pop_alive] is ground truth
   from the relay layer. *)
let note_if_converged t ~subject ~now ~pop_alive =
  if Float.is_nan t.all_dead_at.(subject) then begin
    let n = Mtopo.pops t.topo in
    let all = ref true in
    for o = 0 to n - 1 do
      if o <> subject && pop_alive o && Bytes.get t.view ((o * n) + subject) = '\001'
      then all := false
    done;
    if !all then t.all_dead_at.(subject) <- now
  end

let set_fact t ~observer ~subject ~alive ~now ~pop_alive =
  let n = Mtopo.pops t.topo in
  let cell = (observer * n) + subject in
  let v = if alive then '\001' else '\000' in
  if Bytes.get t.view cell <> v then begin
    Bytes.set t.view cell v;
    t.stamp.(cell) <- now;
    if not alive then note_if_converged t ~subject ~now ~pop_alive
  end
  else t.stamp.(cell) <- Float.max t.stamp.(cell) now

let observe t ~observer ~subject ~alive ~now ~pop_alive =
  set_fact t ~observer ~subject ~alive ~now ~pop_alive

(* Merge sender's row into receiver's: newer stamp wins; on equal
   stamps a dead fact beats a live one (deterministic tie-break that
   errs toward caution). *)
let merge t ~from ~into ~now ~pop_alive =
  let n = Mtopo.pops t.topo in
  for subject = 0 to n - 1 do
    let sc = (from * n) + subject and dc = (into * n) + subject in
    let s_stamp = t.stamp.(sc) and d_stamp = t.stamp.(dc) in
    let s_dead = Bytes.get t.view sc = '\000' in
    let d_dead = Bytes.get t.view dc = '\000' in
    if s_stamp > d_stamp || (Float.equal s_stamp d_stamp && s_dead && not d_dead)
    then begin
      if s_dead <> d_dead then begin
        Bytes.set t.view dc (if s_dead then '\000' else '\001');
        if s_dead then note_if_converged t ~subject ~now ~pop_alive
      end;
      t.stamp.(dc) <- s_stamp
    end
  done;
  t.msgs <- t.msgs + 1;
  Metric.incr m_msgs

let digest t pop =
  let n = Mtopo.pops t.topo in
  let h = ref Fnv.digest_seed in
  for subject = 0 to n - 1 do
    h := Fnv.mix !h (Char.code (Bytes.get t.view ((pop * n) + subject)))
  done;
  Fnv.mix !h t.table_version.(pop)

let distinct_digests t ~pop_alive =
  let n = Mtopo.pops t.topo in
  let count = ref 0 in
  for p = 0 to n - 1 do
    if pop_alive p then begin
      let d = digest t p in
      let fresh = ref true in
      for q = 0 to p - 1 do
        if pop_alive q && digest t q = d then fresh := false
      done;
      if !fresh then incr count
    end
  done;
  !count

(* One anti-entropy round: every live PoP pushes its row to [fanout]
   neighbors chosen by rotating through its CSR row with the round
   number. The merge happens after the slot's latency, as a scheduled
   event — gossip traffic rides the same virtual links as data. *)
let start t ~pop_alive ~until =
  let n = Mtopo.pops t.topo in
  Engine.every t.engine ~interval:interval_s ~until (fun engine ->
      let r = t.round in
      t.round <- r + 1;
      for p = 0 to n - 1 do
        if pop_alive p then begin
          let deg = Mtopo.degree t.topo p in
          let base = Mtopo.slot_base t.topo p in
          for j = 0 to min fanout deg - 1 do
            let s = base + (((r * fanout) + j) mod deg) in
            let target = Mtopo.slot_dst t.topo s in
            let lat = Mtopo.slot_lat_ms t.topo s /. 1000.0 in
            Engine.schedule engine ~delay:lat (fun engine ->
                if pop_alive p && pop_alive target then
                  merge t ~from:p ~into:target ~now:(Engine.now engine)
                    ~pop_alive)
          done
        end
      done)
