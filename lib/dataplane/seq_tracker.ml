(* Missing sequence numbers are kept in a set; with 10 ms probe spacing
   and realistic loss the set stays tiny.

   Sequence numbers arrive as int64 (the wire field is 64-bit) but are
   stored as native ints: tunnel sequences count up from zero and can
   never reach 2^62 in a simulation, and an int set avoids boxing an
   Int64 on every comparison of the per-packet path. *)
module Int_set = Set.Make (Int)
module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace

(* Process-wide observability, aggregated across trackers (one tracker
   per inbound path per PoP; see DESIGN.md §8). *)
let m_loss =
  Metric.counter ~help:"Sequence numbers provisionally declared lost"
    "seq_loss_total"

let m_reorder =
  Metric.counter ~help:"Provisional losses that arrived late (reordering)"
    "seq_reorder_total"

let m_duplicate =
  Metric.counter ~help:"Duplicate sequence numbers received" "seq_duplicate_total"

let k_loss = Trace.kind "seq.loss"

let k_reorder = Trace.kind "seq.reorder"

let k_duplicate = Trace.kind "seq.duplicate"

type t = {
  mutable next_expected : int;
  mutable resync : bool;
      (* Set when table-level expiry dropped this tracker's state: the
         next observation re-anchors [next_expected] at the arriving
         sequence instead of counting the idle gap as loss. *)
  mutable missing : Int_set.t;
  mutable provisional : int;
      (* Int_set.cardinal missing, maintained incrementally so resident
         accounting over 10^6 trackers costs one load per tracker *)
  mutable confirmed_lost : int;  (* pruned from [missing] by confirm_below *)
  mutable received : int;
  mutable reordered : int;
  mutable duplicates : int;
  recent : float array;
      (* EWMA of the per-packet loss indicator, in a one-element float
         array: stored into a mutable field of this mixed record it would
         be boxed on every observation *)
}

let recent_alpha = 0.05

let create () =
  {
    next_expected = 0;
    resync = false;
    missing = Int_set.empty;
    provisional = 0;
    confirmed_lost = 0;
    received = 0;
    reordered = 0;
    duplicates = 0;
    recent = [| 0.0 |];
  }

let[@hot] bump_recent t indicator =
  t.recent.(0) <- (recent_alpha *. indicator) +. ((1.0 -. recent_alpha) *. t.recent.(0))

(* The unchecked core: [seq] is known to lie in [0, max_int]. [now_s]
   only stamps the emitted trace records (the tracker itself is
   clockless); callers without a clock may omit it. *)
let[@hot] observe_seq ?(now_s = 0.0) t seq =
  if t.resync then begin
    t.resync <- false;
    t.next_expected <- seq
  end;
  if seq >= t.next_expected then begin
    (* Every number skipped over becomes provisionally missing. *)
    for skipped = t.next_expected to seq - 1 do
      t.missing <- Int_set.add skipped t.missing;
      t.provisional <- t.provisional + 1;
      Metric.incr m_loss;
      Trace.record Trace.default ~now:now_s ~kind:k_loss skipped 0;
      bump_recent t 1.0
    done;
    t.next_expected <- seq + 1;
    t.received <- t.received + 1;
    bump_recent t 0.0
  end
  else if Int_set.mem seq t.missing then begin
    t.missing <- Int_set.remove seq t.missing;
    t.provisional <- t.provisional - 1;
    t.received <- t.received + 1;
    t.reordered <- t.reordered + 1;
    Metric.incr m_reorder;
    Trace.record Trace.default ~now:now_s ~kind:k_reorder seq 0;
    (* The provisional loss turned out to be reordering. *)
    bump_recent t (-1.0);
    if t.recent.(0) < 0.0 then t.recent.(0) <- 0.0
  end
  else begin
    t.duplicates <- t.duplicates + 1;
    Metric.incr m_duplicate;
    Trace.record Trace.default ~now:now_s ~kind:k_duplicate seq 0
  end

(* The wire field is 64-bit; sequences past max_int cannot occur in a
   simulation and are rejected rather than wrapped. *)
let[@hot] in_range seq64 =
  Int64.compare seq64 (Int64.of_int max_int) <= 0 && Int64.compare seq64 0L >= 0

let[@hot] observe ?now_s t seq64 =
  if not (in_range seq64) then
    Err.invalid "Seq_tracker.observe: sequence outside [0, max_int]";
  observe_seq ?now_s t (Int64.to_int seq64)

let received t = t.received

(* Bound the missing set, like the fixed-size map a real switch would
   keep: every still-provisional sequence below [bound] is declared
   permanently lost and dropped from the set (it keeps counting in
   [lost]). A late arrival of a confirmed sequence counts as a
   duplicate, so only call with a bound the reordering horizon can no
   longer reach. The empty-set check keeps the per-call cost of the
   common case at one load. *)
let confirm_below_seq t bound =
  if not (Int_set.is_empty t.missing) then begin
    let stale, present, fresh = Int_set.split bound t.missing in
    (* [split] removes [bound] itself from both halves; it is not below
       the bound, so it stays provisional. *)
    let fresh = if present then Int_set.add bound fresh else fresh in
    let n_stale = Int_set.cardinal stale in
    if n_stale > 0 then begin
      t.confirmed_lost <- t.confirmed_lost + n_stale;
      t.provisional <- t.provisional - n_stale
    end;
    t.missing <- fresh
  end

let lost t = t.confirmed_lost + t.provisional

let reordered t = t.reordered

let duplicates t = t.duplicates

let recent_loss_rate t = t.recent.(0)

(* A dense keyed population of trackers with memory accounting — the
   10^6-key regime of the million-flow engine, where "how much per-flow
   state is resident right now" is itself an operational signal. The
   table maintains the aggregate provisional-entry count incrementally
   (O(1) per observe thanks to [provisional]) so the load engine can
   gate a run's resident-state peak against a configured ceiling
   without ever walking a million trackers. *)
module Table = struct
  type tracker = t

  type nonrec t = {
    trackers : tracker array;
    idle_generations : int;  (* expiry horizon; 0 = aging off *)
    last_gen : int array;  (* generation of each key's last observation *)
    mutable generation : int;
    mutable resident : int;  (* Σ provisional over all trackers *)
    mutable resident_peak : int;
    mutable active : int;  (* trackers that have observed ≥ 1 packet *)
    mutable evictions : int;  (* trackers expired by generation sweeps *)
  }

  let create ?(ceiling = 0) ?(idle_generations = 0) ~keys () =
    if keys < 0 then Err.invalid "Seq_tracker.Table.create: keys %d negative" keys;
    if ceiling < 0 then
      Err.invalid "Seq_tracker.Table.create: ceiling %d negative" ceiling;
    if idle_generations < 0 then
      Err.invalid "Seq_tracker.Table.create: idle_generations %d negative"
        idle_generations;
    {
      trackers = Array.init keys (fun _ -> create ());
      idle_generations;
      last_gen = Array.make (max keys 1) 0;
      generation = 0;
      resident = 0;
      resident_peak = 0;
      active = 0;
      evictions = 0;
    }

  (* [received = 0] characterizes an untouched tracker: the very first
     observe always lands in the in-order branch (next_expected is 0 and
     sequences are non-negative), so it cannot register only a duplicate
     or only provisional losses. *)
  let[@hot] observe_checked ?now_s tbl ~key seq =
    let tr = Array.unsafe_get tbl.trackers key in
    let untouched = tr.received = 0 in
    let before = tr.provisional in
    observe_seq ?now_s tr seq;
    Array.unsafe_set tbl.last_gen key tbl.generation;
    if untouched then tbl.active <- tbl.active + 1;
    let d = tr.provisional - before in
    if d <> 0 then begin
      tbl.resident <- tbl.resident + d;
      if tbl.resident > tbl.resident_peak then tbl.resident_peak <- tbl.resident
    end

  let[@hot] observe_int tbl ~key seq =
    if seq < 0 then
      Err.invalid "Seq_tracker.Table.observe_int: negative sequence %d" seq;
    observe_checked tbl ~key seq

  let[@hot] observe ?now_s tbl ~key seq64 =
    if not (in_range seq64) then
      Err.invalid "Seq_tracker.observe: sequence outside [0, max_int]";
    observe_checked ?now_s tbl ~key (Int64.to_int seq64)

  let[@hot] confirm_below_int tbl ~key bound =
    if bound < 0 then
      Err.invalid "Seq_tracker.Table.confirm_below_int: negative bound %d" bound;
    let tr = Array.unsafe_get tbl.trackers key in
    let before = tr.provisional in
    confirm_below_seq tr bound;
    tbl.resident <- tbl.resident + (tr.provisional - before)

  let[@hot] confirm_below tbl ~key bound64 =
    if not (in_range bound64) then
      Err.invalid "Seq_tracker.confirm_below: bound outside [0, max_int]";
    confirm_below_int tbl ~key (Int64.to_int bound64)

  (* Expire one idle tracker: its provisional set is freed (credited
     back to the resident aggregate, entries counting as confirmed
     losses — they can no longer heal), and the tracker re-anchors on
     its next observation instead of treating the idle gap as loss. *)
  let evict tbl ~key =
    let tr = tbl.trackers.(key) in
    let freed = tr.provisional in
    if freed > 0 then begin
      tr.confirmed_lost <- tr.confirmed_lost + freed;
      tr.provisional <- 0;
      tr.missing <- Int_set.empty;
      tbl.resident <- tbl.resident - freed
    end;
    tr.resync <- true;
    tbl.evictions <- tbl.evictions + 1

  let advance_generation tbl =
    tbl.generation <- tbl.generation + 1;
    if tbl.idle_generations > 0 then begin
      let horizon = tbl.generation - tbl.idle_generations in
      for key = 0 to Array.length tbl.trackers - 1 do
        let tr = Array.unsafe_get tbl.trackers key in
        if tr.received > 0 && (not tr.resync) && tbl.last_gen.(key) < horizon
        then evict tbl ~key
      done
    end;
    tbl.generation

  let evictions tbl = tbl.evictions

  let active_keys tbl = tbl.active

  let resident tbl = tbl.resident

  let resident_peak tbl = tbl.resident_peak

  let total f tbl = Array.fold_left (fun acc tr -> acc + f tr) 0 tbl.trackers

  let received_total tbl = total received tbl

  let lost_total tbl = total lost tbl

  let reordered_total tbl = total reordered tbl

  let duplicates_total tbl = total duplicates tbl
end
