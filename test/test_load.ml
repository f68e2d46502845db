(* The property-test wall around per-flow state at load-engine scale:
   the Seq_tracker.Table soaked at 10^6 keys under its memory ceiling, a
   differential check of the table's aggregate accounting against a
   plain-Hashtbl reference model, and end-to-end invariants of the E16
   load pipeline (lib/workload -> flow cache -> encap -> fabric ->
   decap -> trackers). *)

module Seq_tracker = Tango_dataplane.Seq_tracker
module Table = Seq_tracker.Table
module Load = Tango_workload.Load
module Throughput = Tango.Throughput

(* Deterministic 30-bit LCG, cheap enough for millions of events. *)
let lcg state =
  state := ((!state * 1103515245) + 12345) land 0x3FFF_FFFF;
  !state

(* ------------------------------------------------------------------ *)
(* Soak: 10^6 keys under a resident-state ceiling                      *)

(* Every key observes a three-packet burst with one gap (0, 2, 3 — seq 1
   goes provisionally missing), and every chunk of keys is confirmed
   before the next chunk starts, the way the dataplane's confirm cadence
   prunes as flows advance. The resident peak must stay at one entry per
   in-flight chunk key, far under the ceiling, even though 10^6 distinct
   keys pass through. *)
let test_table_soak_million_keys () =
  let keys = 1_000_000 in
  let ceiling = 65_536 in
  let chunk = 32_768 in
  let tbl = Table.create ~ceiling ~keys () in
  let confirmed_to = ref 0 in
  let confirm_chunk upto =
    for key = !confirmed_to to upto - 1 do
      Table.confirm_below tbl ~key 4L
    done;
    confirmed_to := upto
  in
  for key = 0 to keys - 1 do
    Table.observe tbl ~key 0L;
    Table.observe tbl ~key 2L;
    Table.observe tbl ~key 3L;
    if (key + 1) mod chunk = 0 then confirm_chunk (key + 1)
  done;
  confirm_chunk keys;
  Alcotest.(check int) "every key active" keys (Table.active_keys tbl);
  Alcotest.(check int) "received" (3 * keys) (Table.received_total tbl);
  Alcotest.(check int) "one confirmed loss per key" keys (Table.lost_total tbl);
  Alcotest.(check int) "nothing resident after confirm" 0 (Table.resident tbl);
  Alcotest.(check bool) "peak stayed under the ceiling" true
    (Table.resident_peak tbl <= ceiling);
  Alcotest.(check bool) "peak is the chunk width" true
    (Table.resident_peak tbl = chunk);
  (* Confirming every key again from this state is a no-op on every
     counter. *)
  for key = 0 to keys - 1 do
    Table.confirm_below tbl ~key 4L
  done;
  Alcotest.(check int) "prune is idempotent" keys (Table.lost_total tbl);
  Alcotest.(check int) "still nothing resident" 0 (Table.resident tbl)

(* ------------------------------------------------------------------ *)
(* Differential: Table vs a plain-Hashtbl reference model              *)

(* An independent reimplementation of the tracker spec, one Hashtbl of
   delivered and one of provisionally-missing sequences per key — the
   obvious O(population) structure the flat table replaces. *)
module Ref_model = struct
  type per_key = {
    delivered : (int64, unit) Hashtbl.t;
    missing : (int64, unit) Hashtbl.t;
    mutable next : int64;
    mutable received : int;
    mutable reordered : int;
    mutable duplicates : int;
    mutable confirmed : int;
  }

  type t = { keys : per_key array }

  let create ~keys =
    {
      keys =
        Array.init keys (fun _ ->
            {
              delivered = Hashtbl.create 8;
              missing = Hashtbl.create 8;
              next = 0L;
              received = 0;
              reordered = 0;
              duplicates = 0;
              confirmed = 0;
            });
    }

  let observe t ~key seq =
    let k = t.keys.(key) in
    if Hashtbl.mem k.delivered seq then k.duplicates <- k.duplicates + 1
    else if Hashtbl.mem k.missing seq then begin
      Hashtbl.remove k.missing seq;
      Hashtbl.replace k.delivered seq ();
      k.received <- k.received + 1;
      k.reordered <- k.reordered + 1
    end
    else if Int64.compare seq k.next >= 0 then begin
      let g = ref k.next in
      while Int64.compare !g seq < 0 do
        Hashtbl.replace k.missing !g ();
        g := Int64.add !g 1L
      done;
      Hashtbl.replace k.delivered seq ();
      k.received <- k.received + 1;
      k.next <- Int64.add seq 1L
    end
    else
      (* Below [next], neither delivered nor provisionally missing: a
         late arrival of a confirmed-lost sequence, spec'd to count as a
         duplicate. *)
      k.duplicates <- k.duplicates + 1

  let confirm_below t ~key bound =
    let k = t.keys.(key) in
    let stale =
      Hashtbl.fold
        (fun seq () acc -> if Int64.compare seq bound < 0 then seq :: acc else acc)
        k.missing []
    in
    List.iter (Hashtbl.remove k.missing) stale;
    k.confirmed <- k.confirmed + List.length stale

  let fold f t init =
    Array.fold_left (fun acc k -> f acc k) init t.keys

  let received_total t = fold (fun a k -> a + k.received) t 0
  let reordered_total t = fold (fun a k -> a + k.reordered) t 0
  let duplicates_total t = fold (fun a k -> a + k.duplicates) t 0
  let lost_total t = fold (fun a k -> a + k.confirmed + Hashtbl.length k.missing) t 0
  let resident t = fold (fun a k -> a + Hashtbl.length k.missing) t 0
  let active_keys t = fold (fun a k -> a + min 1 k.received) t 0
end

(* 10^5 keys, ~5 x 10^5 events: in-order sends, skips (drops), replays
   of old sequences (reorders or duplicates depending on history), and
   interleaved per-key confirms — identical streams into both
   implementations, every aggregate compared at the end. *)
let test_table_matches_reference () =
  let keys = 100_000 in
  let events = 500_000 in
  let tbl = Table.create ~keys () in
  let rm = Ref_model.create ~keys in
  let next_send = Array.make keys 0 in
  let state = ref 987_654 in
  for _ = 1 to events do
    let r = lcg state in
    let key = r mod keys in
    let action = (r lsr 17) mod 16 in
    if action < 10 then begin
      (* In-order send. *)
      let seq = Int64.of_int next_send.(key) in
      next_send.(key) <- next_send.(key) + 1;
      Table.observe tbl ~key seq;
      Ref_model.observe rm ~key seq
    end
    else if action < 13 then begin
      (* Skip ahead: 1-3 sequences dropped on the wire. *)
      let skip = 1 + ((r lsr 21) mod 3) in
      let seq = Int64.of_int (next_send.(key) + skip) in
      next_send.(key) <- next_send.(key) + skip + 1;
      Table.observe tbl ~key seq;
      Ref_model.observe rm ~key seq
    end
    else if action < 15 then begin
      (* Replay an already-spanned sequence: heals a gap (reorder) or
         repeats a delivery (duplicate). *)
      if next_send.(key) > 0 then begin
        let seq = Int64.of_int ((r lsr 21) mod next_send.(key)) in
        Table.observe tbl ~key seq;
        Ref_model.observe rm ~key seq
      end
    end
    else begin
      (* Confirm everything below the key's current horizon. *)
      let bound = Int64.of_int next_send.(key) in
      Table.confirm_below tbl ~key bound;
      Ref_model.confirm_below rm ~key bound
    end
  done;
  Alcotest.(check int) "received" (Ref_model.received_total rm)
    (Table.received_total tbl);
  Alcotest.(check int) "lost" (Ref_model.lost_total rm) (Table.lost_total tbl);
  Alcotest.(check int) "reordered" (Ref_model.reordered_total rm)
    (Table.reordered_total tbl);
  Alcotest.(check int) "duplicates" (Ref_model.duplicates_total rm)
    (Table.duplicates_total tbl);
  Alcotest.(check int) "resident" (Ref_model.resident rm) (Table.resident tbl);
  Alcotest.(check int) "active keys" (Ref_model.active_keys rm)
    (Table.active_keys tbl)

(* Property form of the same differential on small random traces. *)
let table_qcheck_matches_reference =
  QCheck.Test.make ~name:"table aggregates match the Hashtbl reference"
    ~count:100
    QCheck.(pair (int_bound 100_000) (int_range 2 20))
    (fun (seed, keys) ->
      let tbl = Table.create ~keys () in
      let rm = Ref_model.create ~keys in
      let next_send = Array.make keys 0 in
      let state = ref (seed + 1) in
      for _ = 1 to 400 do
        let r = lcg state in
        let key = r mod keys in
        let action = (r lsr 17) mod 16 in
        if action < 10 then begin
          let seq = Int64.of_int next_send.(key) in
          next_send.(key) <- next_send.(key) + 1;
          Table.observe tbl ~key seq;
          Ref_model.observe rm ~key seq
        end
        else if action < 13 then begin
          let skip = 1 + ((r lsr 21) mod 3) in
          let seq = Int64.of_int (next_send.(key) + skip) in
          next_send.(key) <- next_send.(key) + skip + 1;
          Table.observe tbl ~key seq;
          Ref_model.observe rm ~key seq
        end
        else if action < 15 then begin
          if next_send.(key) > 0 then begin
            let seq = Int64.of_int ((r lsr 21) mod next_send.(key)) in
            Table.observe tbl ~key seq;
            Ref_model.observe rm ~key seq
          end
        end
        else begin
          let bound = Int64.of_int next_send.(key) in
          Table.confirm_below tbl ~key bound;
          Ref_model.confirm_below rm ~key bound
        end
      done;
      Table.received_total tbl = Ref_model.received_total rm
      && Table.lost_total tbl = Ref_model.lost_total rm
      && Table.reordered_total tbl = Ref_model.reordered_total rm
      && Table.duplicates_total tbl = Ref_model.duplicates_total rm
      && Table.resident tbl = Ref_model.resident rm
      && Table.active_keys tbl = Ref_model.active_keys rm)

(* ------------------------------------------------------------------ *)
(* End-to-end invariants of the load pipeline                          *)

let run_load ?(domains = 2) ?(flows = 2_000) ?(cache_capacity = 256) () =
  let plan =
    Load.plan (Load.default_config ~flows ~generations:64 ~seed:42 ())
  in
  (plan, Throughput.run ~domains ~plan ~cache_capacity ~tracker_ceiling:4_096 ())

let test_load_conservation () =
  let plan, r = run_load () in
  Alcotest.(check int) "offered is the plan's packet budget"
    (List.fold_left ( + ) 0 (List.init (Load.flows plan) (Load.flow_pkts plan)))
    r.Throughput.offered;
  Alcotest.(check int) "every non-dropped packet is delivered"
    r.Throughput.offered
    (r.Throughput.delivered + r.Throughput.synthetic_drops);
  (* Trackers can only blame gaps they observed: tail drops (nothing
     after them within the flow) are invisible, so detected loss is
     bounded by the injected loss. *)
  Alcotest.(check bool) "lost <= synthetic drops" true
    (r.Throughput.lost <= r.Throughput.synthetic_drops);
  Alcotest.(check int) "no duplicates on a clean fabric" 0
    r.Throughput.duplicates;
  Alcotest.(check bool) "tracker stayed under its ceiling" true
    (r.Throughput.tracker_resident_peak
    <= r.Throughput.domains * r.Throughput.tracker_ceiling)

let test_load_cache_pressure () =
  let _, r = run_load ~cache_capacity:256 () in
  (* 2000 flows through 256-entry lane caches must evict, yet the
     hit-rate stays meaningful and the residency respects the bound. *)
  Alcotest.(check bool) "evictions happened" true (r.Throughput.cache_evictions > 0);
  Alcotest.(check bool) "hit rate in (0, 1)" true
    (Throughput.hit_rate r > 0.0 && Throughput.hit_rate r < 1.0);
  Alcotest.(check bool) "resident within lane capacities" true
    (r.Throughput.cache_resident
    <= r.Throughput.domains * r.Throughput.cache_capacity)

let test_load_policy_gap () =
  let _, r = run_load () in
  let ratio = Throughput.default_over_best r in
  if ratio < 1.25 || ratio > 1.35 then
    Alcotest.failf "default/best owd ratio %.4f outside [1.25, 1.35]" ratio

let test_load_fingerprint_deterministic () =
  let _, r1 = run_load () in
  let _, r2 = run_load () in
  Alcotest.(check string) "repeat run identical"
    (Throughput.fingerprint r1) (Throughput.fingerprint r2);
  (* The delivered-record digest is a lane-partition invariant: packets
     are dropped, routed and timed per (flow, generation), never per
     lane. Occupancy counters (cache/tracker residency) legitimately
     differ across domain counts, so only the fingerprint is compared. *)
  let _, r_one = run_load ~domains:1 () in
  Alcotest.(check string) "1-domain and 2-domain digests agree"
    (Throughput.fingerprint r_one) (Throughput.fingerprint r1);
  Alcotest.(check int) "same delivery count" r_one.Throughput.delivered
    r1.Throughput.delivered

let test_load_unbounded_cache_never_evicts () =
  let plan =
    Load.plan (Load.default_config ~flows:1_000 ~generations:48 ~seed:7 ())
  in
  let r = Throughput.run ~domains:2 ~plan () in
  Alcotest.(check int) "no capacity, no evictions" 0 r.Throughput.cache_evictions;
  let r_roomy =
    Throughput.run ~domains:2 ~plan ~cache_capacity:(Load.flows plan) ()
  in
  (* Capacity >= the flow population: identical digest and cache hits. *)
  Alcotest.(check int) "roomy bound never evicts" 0
    r_roomy.Throughput.cache_evictions;
  Alcotest.(check string) "same digest either way"
    (Throughput.fingerprint r) (Throughput.fingerprint r_roomy);
  Alcotest.(check int) "same hit count" r.Throughput.cache_hits
    r_roomy.Throughput.cache_hits

(* ------------------------------------------------------------------ *)
(* Idle-generation aging                                               *)

let test_table_idle_aging () =
  let tbl = Table.create ~idle_generations:2 ~keys:4 () in
  (* Keys 0 and 1 open with a gap (seq 1 provisionally missing); key 0
     then keeps talking every generation, key 1 goes idle. *)
  let touch key =
    Table.observe tbl ~key 0L;
    Table.observe tbl ~key 2L
  in
  touch 0;
  touch 1;
  ignore (Table.advance_generation tbl);
  Table.observe tbl ~key:0 3L;
  ignore (Table.advance_generation tbl);
  Table.observe tbl ~key:0 4L;
  Alcotest.(check int) "nothing evicted yet" 0 (Table.evictions tbl);
  (* Generation 3: key 1 last observed at generation 0, horizon 3 - 2
     = 1 > 0 — it ages out; key 0 was stamped this generation. *)
  ignore (Table.advance_generation tbl);
  Alcotest.(check int) "idle key evicted" 1 (Table.evictions tbl);
  (* Key 1's provisional gap became a confirmed loss; key 0's own open
     gap still counts as (provisional) loss, hence 2 in total. *)
  Alcotest.(check int) "evicted gap confirmed as lost" 2
    (Table.lost_total tbl);
  Alcotest.(check int) "only the live key stays resident" 1
    (Table.resident tbl);
  (* The evicted key re-anchors on its next packet instead of reading
     the resumed seq as a giant gap. *)
  Table.observe tbl ~key:1 50L;
  Alcotest.(check int) "re-anchored, no phantom gap" 2 (Table.lost_total tbl);
  Alcotest.(check int) "re-anchor leaves nothing new resident" 1
    (Table.resident tbl)

let test_load_aging_fingerprint_invariant () =
  let plan =
    Load.plan (Load.default_config ~flows:2_000 ~generations:64 ~seed:7 ())
  in
  let plain = Throughput.run ~domains:2 ~plan ()
  and aged = Throughput.run ~domains:2 ~plan ~tracker_idle_gens:8 () in
  (* Aging touches tracker accounting only, never the delivery stream:
     heavy-tailed schedules leave most short flows idle long before the
     run ends, so trackers actually age out, yet the digest is
     untouched. *)
  Alcotest.(check bool) "idle trackers aged out" true
    (aged.Throughput.tracker_evictions > 0);
  Alcotest.(check string) "fingerprint invariant under aging"
    (Throughput.fingerprint plain)
    (Throughput.fingerprint aged);
  Alcotest.(check bool) "aging frees resident state" true
    (aged.Throughput.tracker_resident <= plain.Throughput.tracker_resident)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_load"
    [
      ( "tracker_table",
        [
          tc "soak: 10^6 keys under the ceiling" `Slow
            test_table_soak_million_keys;
          tc "differential vs Hashtbl reference (10^5 keys)" `Slow
            test_table_matches_reference;
          qc table_qcheck_matches_reference;
          tc "idle-generation aging" `Quick test_table_idle_aging;
        ] );
      ( "pipeline",
        [
          tc "packet conservation" `Quick test_load_conservation;
          tc "cache pressure" `Quick test_load_cache_pressure;
          tc "policy-quality gap" `Quick test_load_policy_gap;
          tc "fingerprint determinism" `Quick test_load_fingerprint_deterministic;
          tc "unbounded cache never evicts" `Quick
            test_load_unbounded_cache_never_evicts;
          tc "aging is fingerprint-invariant" `Quick
            test_load_aging_fingerprint_invariant;
        ] );
    ]
