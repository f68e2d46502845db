(* Multicore batched dataplane: shard primitives and the cross-domain
   determinism contract (DESIGN.md §11).

   The differential suite is the load-bearing one: the same seeded
   workload, run at 1, 2 and 4 domains, must produce byte-identical
   delivered-packet fingerprints and identical per-flow tracker totals —
   the deterministic-merge guarantee the whole design rests on. *)

open Tango_sim
module Batch = Tango_dataplane.Batch
module Seq_tracker = Tango_dataplane.Seq_tracker

(* ------------------------------------------------------------------ *)
(* Shard.lane_of_hash                                                  *)

let test_lane_of_hash_bounds () =
  List.iter
    (fun lanes ->
      List.iter
        (fun hash ->
          let l = Shard.lane_of_hash ~lanes hash in
          Alcotest.(check bool)
            (Printf.sprintf "lane in [0,%d) for hash %d" lanes hash)
            true
            (l >= 0 && l < lanes))
        [ 0; 1; 42; max_int; min_int; -1; 0x2545F4914F6CDD1D ])
    [ 1; 2; 3; 4; 7 ]

let test_lane_of_hash_stable () =
  Alcotest.(check int) "same hash same lane"
    (Shard.lane_of_hash ~lanes:4 123456789)
    (Shard.lane_of_hash ~lanes:4 123456789);
  Alcotest.(check int) "one lane maps everything to 0" 0
    (Shard.lane_of_hash ~lanes:1 987654321);
  Alcotest.(check bool) "non-positive lanes rejected" true
    (try
       ignore (Shard.lane_of_hash ~lanes:0 1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Shard.Ring                                                          *)

let test_ring_capacity_rounding () =
  Alcotest.(check int) "capacity rounds up to a power of two" 8
    (Shard.Ring.capacity (Shard.Ring.create ~capacity:5));
  Alcotest.(check int) "power of two kept" 4
    (Shard.Ring.capacity (Shard.Ring.create ~capacity:4));
  Alcotest.(check bool) "non-positive capacity rejected" true
    (try
       ignore (Shard.Ring.create ~capacity:0);
       false
     with Invalid_argument _ -> true)

let test_ring_fifo_order () =
  let ring = Shard.Ring.create ~capacity:8 in
  Alcotest.(check bool) "starts empty" true (Shard.Ring.is_empty ring);
  Alcotest.(check (float 0.0)) "empty peek_time is infinity" infinity
    (Shard.Ring.peek_time ring);
  Alcotest.(check int) "empty peek_b is max_int" max_int (Shard.Ring.peek_b ring);
  for i = 0 to 4 do
    Shard.Ring.push ring ~time:(float_of_int i) ~a:(10 + i) ~b:(20 + i) ~c:(30 + i)
      ~v:(0.5 +. float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "peek_time sees the head" 0.0
    (Shard.Ring.peek_time ring);
  Alcotest.(check int) "peek_b sees the head" 20 (Shard.Ring.peek_b ring);
  let r = Shard.scratch () in
  for i = 0 to 4 do
    Alcotest.(check bool) "length tracks pushes" false (Shard.Ring.is_empty ring);
    Shard.pop_into ring r;
    Alcotest.(check (float 0.0)) "time in push order" (float_of_int i) r.Shard.time;
    Alcotest.(check int) "a field" (10 + i) r.Shard.a;
    Alcotest.(check int) "b field" (20 + i) r.Shard.b;
    Alcotest.(check int) "c field" (30 + i) r.Shard.c;
    Alcotest.(check (float 0.0)) "v field" (0.5 +. float_of_int i) r.Shard.v
  done;
  Alcotest.(check bool) "drained" true (Shard.Ring.is_empty ring);
  Alcotest.(check bool) "pop on empty rejected" true
    (try
       Shard.pop_into ring r;
       false
     with Invalid_argument _ -> true)

let test_ring_overflow_raises () =
  let ring = Shard.Ring.create ~capacity:4 in
  for i = 0 to 3 do
    Shard.Ring.push ring ~time:(float_of_int i) ~a:0 ~b:0 ~c:0 ~v:0.0
  done;
  Alcotest.(check bool) "push past capacity rejected" true
    (try
       Shard.Ring.push ring ~time:9.0 ~a:0 ~b:0 ~c:0 ~v:0.0;
       false
     with Invalid_argument _ -> true)

let test_ring_wraps_after_drain () =
  (* Head/tail are monotonic cursors masked into the arrays: after a
     drain the ring must accept a fresh full batch. *)
  let ring = Shard.Ring.create ~capacity:4 in
  let r = Shard.scratch () in
  for round = 0 to 2 do
    for i = 0 to 3 do
      Shard.Ring.push ring ~time:(float_of_int ((round * 4) + i)) ~a:i ~b:0 ~c:0 ~v:0.0
    done;
    for i = 0 to 3 do
      Shard.pop_into ring r;
      Alcotest.(check (float 0.0)) "wrapped time"
        (float_of_int ((round * 4) + i))
        r.Shard.time
    done
  done

(* ------------------------------------------------------------------ *)
(* Shard.merge                                                         *)

let test_merge_time_then_lane_order () =
  let rings = Array.init 3 (fun _ -> Shard.Ring.create ~capacity:8) in
  (* Lane 0: t=1,3   lane 1: t=1,2   lane 2: t=0,3.
     Ties on time must resolve to the lowest lane id. *)
  Shard.Ring.push rings.(0) ~time:1.0 ~a:0 ~b:0 ~c:0 ~v:0.0;
  Shard.Ring.push rings.(0) ~time:3.0 ~a:1 ~b:0 ~c:0 ~v:0.0;
  Shard.Ring.push rings.(1) ~time:1.0 ~a:2 ~b:0 ~c:0 ~v:0.0;
  Shard.Ring.push rings.(1) ~time:2.0 ~a:3 ~b:0 ~c:0 ~v:0.0;
  Shard.Ring.push rings.(2) ~time:0.0 ~a:4 ~b:0 ~c:0 ~v:0.0;
  Shard.Ring.push rings.(2) ~time:3.0 ~a:5 ~b:0 ~c:0 ~v:0.0;
  let order = ref [] in
  Shard.merge rings ~consume:(fun ~lane r -> order := (lane, r.Shard.a) :: !order);
  Alcotest.(check (list (pair int int)))
    "(time, lane-id, ring-position) order"
    [ (2, 4); (0, 0); (1, 2); (1, 3); (0, 1); (2, 5) ]
    (List.rev !order)

let test_run_single_producer_per_lane () =
  (* Through Shard.run: each lane (its own domain) fills its own ring;
     after the join the caller merges them deterministically. *)
  let rings = Array.init 3 (fun _ -> Shard.Ring.create ~capacity:4) in
  Shard.run ~lanes:3 ~lane:(fun ~lane ->
      for i = 0 to 2 do
        Shard.Ring.push rings.(lane)
          ~time:(float_of_int ((i * 3) + lane))
          ~a:lane ~b:i ~c:0 ~v:0.0
      done);
  let consumed = ref [] in
  Shard.merge rings ~consume:(fun ~lane r -> consumed := (lane, r.Shard.b) :: !consumed);
  let expect =
    (* times: lane l emits t = 3i + l, so the global order interleaves
       lanes 0,1,2 at each i. *)
    [ (0, 0); (1, 0); (2, 0); (0, 1); (1, 1); (2, 1); (0, 2); (1, 2); (2, 2) ]
  in
  Alcotest.(check (list (pair int int))) "merged in virtual-time order" expect
    (List.rev !consumed)

let test_run_lane_zero_on_caller () =
  (* N lanes use N domains: lane 0 runs on the calling domain. *)
  let caller = (Domain.self () :> int) in
  let on = Array.make 3 (-1) in
  Shard.run ~lanes:3 ~lane:(fun ~lane -> on.(lane) <- (Domain.self () :> int));
  Alcotest.(check int) "lane 0 on the caller" caller on.(0);
  Alcotest.(check bool) "other lanes on other domains" true
    (on.(1) <> caller && on.(2) <> caller && on.(1) <> on.(2))

let test_run_joins_every_lane_on_raise () =
  (* Lanes 1 and 2 finish only after lane 0 (on the caller) has raised:
     [run] must still wait for them, then re-raise lane 0's failure. *)
  let raised = Atomic.make false in
  let finished = Array.init 3 (fun _ -> Atomic.make false) in
  (match
     Shard.run ~lanes:3 ~lane:(fun ~lane ->
         if lane = 0 then begin
           Atomic.set raised true;
           failwith "lane 0"
         end
         else begin
           while not (Atomic.get raised) do
             Domain.cpu_relax ()
           done;
           Atomic.set finished.(lane) true
         end)
   with
  | () -> Alcotest.fail "run returned"
  | exception Failure m -> Alcotest.(check string) "lane 0's failure" "lane 0" m);
  Alcotest.(check bool) "lane 1 joined" true (Atomic.get finished.(1));
  Alcotest.(check bool) "lane 2 joined" true (Atomic.get finished.(2));
  (* A spawned lane's failure surfaces too. *)
  match
    Shard.run ~lanes:2 ~lane:(fun ~lane -> if lane = 1 then failwith "lane 1")
  with
  | () -> Alcotest.fail "run returned"
  | exception Failure m -> Alcotest.(check string) "lane 1's failure" "lane 1" m

(* ------------------------------------------------------------------ *)
(* Shard.scatter / Shard.drain_into: the in-lane column paths          *)

let test_scatter_by_c () =
  let rings = Array.init 3 (fun _ -> Shard.Ring.create ~capacity:4) in
  Shard.scatter rings ~time:[| 1.0; 2.0; 3.0; 4.0; 9.0 |]
    ~a:[| 10; 11; 12; 13; 14 |] ~b:[| 20; 21; 22; 23; 24 |]
    ~c:[| 2; 0; 2; 1; 0 |] ~v:[| 0.5; 1.5; 2.5; 3.5; 4.5 |] 4;
  let r = Shard.scratch () in
  let drain_times ring =
    let rec go acc =
      if Shard.Ring.is_empty ring then List.rev acc
      else begin
        Shard.pop_into ring r;
        go (r.Shard.time :: acc)
      end
    in
    go []
  in
  Alcotest.(check (list (list (float 0.0))))
    "record i lands on ring c.(i), first n only" [ [ 2.0 ]; [ 4.0 ] ]
    [ drain_times rings.(0); drain_times rings.(1) ];
  Shard.pop_into rings.(2) r;
  Alcotest.(check (float 0.0)) "first time" 1.0 r.Shard.time;
  Alcotest.(check (list int)) "fields" [ 10; 20; 2 ] [ r.Shard.a; r.Shard.b; r.Shard.c ];
  Alcotest.(check (float 0.0)) "v" 0.5 r.Shard.v;
  Shard.pop_into rings.(2) r;
  Alcotest.(check (float 0.0)) "ring order is column order" 3.0 r.Shard.time;
  Alcotest.(check bool) "ring 2 holds two" true (Shard.Ring.is_empty rings.(2));
  Alcotest.(check bool) "overflow raises" true
    (try
       Shard.scatter rings ~time:(Array.make 5 0.0) ~a:(Array.make 5 0)
         ~b:(Array.make 5 0) ~c:(Array.make 5 1) ~v:(Array.make 5 0.0) 5;
       false
     with Invalid_argument _ -> true)

let test_drain_into_order () =
  let rings = Array.init 2 (fun _ -> Shard.Ring.create ~capacity:8) in
  (* [c] is the ring index and [v] is [a + 0.5], so the columns show
     where each record came from. *)
  let push r ~time ~a ~b =
    Shard.Ring.push rings.(r) ~time ~a ~b ~c:r ~v:(float_of_int a +. 0.5)
  in
  push 0 ~time:1.0 ~a:0 ~b:5;
  push 0 ~time:2.0 ~a:1 ~b:1;
  push 0 ~time:3.0 ~a:2 ~b:0;
  push 1 ~time:1.0 ~a:3 ~b:3;
  push 1 ~time:2.0 ~a:4 ~b:1;
  push 1 ~time:5.0 ~a:5 ~b:0;
  let time = Array.make 2 nan and c = Array.make 2 (-1) and v = Array.make 2 nan in
  let a = Array.make 2 (-1) and b = Array.make 2 (-1) in
  let drained = ref [] in
  let step upto expect =
    let k = Shard.drain_into rings ~upto ~time ~a ~b ~c ~v in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "chunk up to %g" upto)
      expect
      (List.init k (fun i -> (a.(i), b.(i))));
    drained := !drained @ List.init k (fun i -> (time.(i), c.(i), v.(i)))
  in
  (* Equal times go by b, then equal (time, b) by ring index. *)
  step 2.5 [ (3, 3); (0, 5) ];
  step 2.5 [ (1, 1); (4, 1) ];
  step 2.5 [];
  step infinity [ (2, 0); (5, 0) ];
  Alcotest.(check (list (triple (float 0.0) int (float 0.0))))
    "time, c and v columns in the merged order"
    [
      (1.0, 1, 3.5);
      (1.0, 0, 0.5);
      (2.0, 0, 1.5);
      (2.0, 1, 4.5);
      (3.0, 0, 2.5);
      (5.0, 1, 5.5);
    ]
    !drained;
  Alcotest.(check bool) "rings empty" true (Array.for_all Shard.Ring.is_empty rings)

(* Property: however the cut-offs fall and however short the columns
   are, draining to each cut-off in turn, then to infinity, yields
   every record once, in the order of a stable sort of all of them by
   (time, b, ring index), and each cut-off drains exactly the records
   at or before it. Times and [b] come from small ranges, so equal
   times and equal (time, b) pairs across rings are common. Each ring
   is in (time, b) order, as the sort assumes; [a] is a record's
   unique id. *)
let drain_into_qcheck_matches_sort =
  let gen =
    QCheck.Gen.(
      let* rings = int_range 1 4 in
      let* per_ring =
        list_repeat rings (list_size (int_bound 12) (pair (int_bound 3) (int_bound 4)))
      in
      let* cuts = list_size (int_bound 4) (int_bound 8) in
      let* len = int_range 1 4 in
      return (per_ring, cuts, len))
  in
  let print (per_ring, cuts, len) =
    Printf.sprintf "rings %s cuts %s columns %d"
      (String.concat " | "
         (List.map
            (fun l ->
              String.concat ";" (List.map (fun (t, b) -> Printf.sprintf "%d,%d" t b) l))
            per_ring))
      (String.concat ";" (List.map string_of_int cuts))
      len
  in
  QCheck.Test.make ~name:"drain_into = stable sort by (time, b, ring)" ~count:500
    (QCheck.make ~print gen) (fun (per_ring, cuts, len) ->
      let next_id = ref 0 in
      let records =
        List.mapi
          (fun ring l ->
            List.map
              (fun (t, b) ->
                let id = !next_id in
                incr next_id;
                (float_of_int t, id, b, ring, float_of_int id +. 0.25))
              (List.sort compare l))
          per_ring
      in
      let rings =
        Array.of_list
          (List.map
             (fun l ->
               let ring = Shard.Ring.create ~capacity:(max 1 (List.length l)) in
               List.iter
                 (fun (time, a, b, c, v) -> Shard.Ring.push ring ~time ~a ~b ~c ~v)
                 l;
               ring)
             records)
      in
      let expect =
        List.stable_sort
          (fun (t1, _, b1, r1, _) (t2, _, b2, r2, _) -> compare (t1, b1, r1) (t2, b2, r2))
          (List.concat records)
      in
      (* The [a] column is longer: the shortest column bounds a chunk. *)
      let time = Array.make len nan and a = Array.make (len + 3) (-1) in
      let b = Array.make len (-1) and c = Array.make len (-1) in
      let v = Array.make len nan in
      let got = ref [] in
      let drain_to upto =
        let k = ref len in
        while !k = len do
          k := Shard.drain_into rings ~upto ~time ~a ~b ~c ~v;
          if !k > len then QCheck.Test.fail_reportf "chunk of %d > %d" !k len;
          for i = 0 to !k - 1 do
            got := (time.(i), a.(i), b.(i), c.(i), v.(i)) :: !got
          done
        done;
        let at_or_before =
          List.length (List.filter (fun (t, _, _, _, _) -> t <= upto) expect)
        in
        if List.length !got <> at_or_before then
          QCheck.Test.fail_reportf "up to %g: drained %d, %d at or before" upto
            (List.length !got) at_or_before
      in
      List.iter (fun u -> drain_to (float_of_int u /. 2.0)) (List.sort compare cuts);
      drain_to infinity;
      List.rev !got = expect && Array.for_all Shard.Ring.is_empty rings)

(* ------------------------------------------------------------------ *)
(* Batch                                                               *)

let mk_packet i =
  let flow =
    Tango_net.Flow.v
      ~src:(Tango_net.Addr.of_string_exn "2001:db8::1")
      ~dst:(Tango_net.Addr.of_string_exn "2001:db8::2")
      ~proto:17 ~src_port:(40000 + i) ~dst_port:4789
  in
  Tango_net.Packet.create ~id:i ~flow ~payload_bytes:512 ~created_at:0.0 ()

let test_batch_fill_and_read () =
  let b = Batch.create () in
  Alcotest.(check int) "capacity is the NAPI-style 64" 64 Batch.capacity;
  Alcotest.(check bool) "starts empty" true (Batch.is_empty b);
  for i = 0 to Batch.capacity - 1 do
    Batch.add b (mk_packet i)
  done;
  Alcotest.(check int) "length" Batch.capacity (Batch.length b);
  Alcotest.(check int) "slots keep insertion order" 7
    b.Batch.packets.(7).Tango_net.Packet.id;
  (* Each packet's destination is a value of its own: equal addresses,
     one table entry each. *)
  Alcotest.(check int) "an entry per destination value" Batch.capacity
    b.Batch.endpoint_count;
  Alcotest.(check bool) "add past capacity rejected" true
    (try
       Batch.add b (mk_packet 99);
       false
     with Tango_dataplane.Err.Invalid _ -> true);
  Batch.clear b;
  Alcotest.(check bool) "clear empties" true (Batch.is_empty b);
  Batch.add b (mk_packet 1);
  Batch.purge b;
  Alcotest.(check bool) "purge empties too" true (Batch.is_empty b)

let test_batch_encap_columns () =
  let b = Batch.create () in
  let dst = Tango_net.Addr.of_string_exn "2001:db8:100::1" in
  Batch.set_stamp_ns b 1_000_000;
  Batch.encap b ~dst ~bytes:620 ~path:3 ~flow:17 ~seq:41;
  Batch.add b (mk_packet 5);
  Alcotest.(check int) "both forms share the slots" 2 (Batch.length b);
  Alcotest.(check bool) "endpoint column, through the table" true
    (b.Batch.endpoints.(b.Batch.dst.(0)) == dst);
  Alcotest.(check (list int)) "encap slot columns" [ 620; 3; 17; 41 ]
    [ b.Batch.bytes.(0); b.Batch.path.(0); b.Batch.flow.(0); b.Batch.seq.(0) ];
  Alcotest.(check bool) "encap slot holds no packet" true
    (b.Batch.packets.(0) == Batch.no_packet);
  Alcotest.(check int) "one stamp per batch" 1_000_000 b.Batch.stamp_ns;
  (* An unencapsulated packet routes on its inner destination and has
     no Tango header. *)
  Alcotest.(check (list int)) "packet slot columns" [ 552; -1; 5; -1 ]
    [ b.Batch.bytes.(1); b.Batch.path.(1); b.Batch.flow.(1); b.Batch.seq.(1) ];
  Alcotest.(check int) "packet kept" 5 b.Batch.packets.(1).Tango_net.Packet.id;
  for _ = 3 to Batch.capacity do
    Batch.encap b ~dst ~bytes:620 ~path:0 ~flow:0 ~seq:0
  done;
  Alcotest.(check int) "a repeated endpoint keeps its entry" 2 b.Batch.endpoint_count;
  Alcotest.(check (list int)) "slots name it by index" [ 0; 1; 0; 0 ]
    [ b.Batch.dst.(0); b.Batch.dst.(1); b.Batch.dst.(2); b.Batch.dst.(63) ];
  Alcotest.(check bool) "encap past capacity rejected" true
    (try
       Batch.encap b ~dst ~bytes:620 ~path:0 ~flow:0 ~seq:0;
       false
     with Tango_dataplane.Err.Invalid _ -> true);
  (* [clear] resets the table: the next endpoint takes entry 0. *)
  let other = Tango_net.Addr.of_string_exn "2001:db8:200::1" in
  Batch.clear b;
  Alcotest.(check int) "clear empties the table" 0 b.Batch.endpoint_count;
  Batch.encap b ~dst:other ~bytes:620 ~path:0 ~flow:0 ~seq:0;
  let p6 = mk_packet 6 in
  Batch.add b p6;
  let p6_dst = Tango_net.Packet.forwarding_dst p6 in
  Alcotest.(check bool) "entries refilled from 0" true
    (b.Batch.endpoint_count = 2
    && b.Batch.endpoints.(0) == other
    && b.Batch.endpoints.(1) == p6_dst
    && b.Batch.dst.(0) = 0 && b.Batch.dst.(1) = 1);
  Batch.purge b;
  Alcotest.(check bool) "purge drops the packet" true
    (b.Batch.packets.(1) == Batch.no_packet);
  Alcotest.(check int) "purge empties the table" 0 b.Batch.endpoint_count;
  Alcotest.(check bool) "and drops its references" true
    (Array.for_all (fun e -> e != dst && e != other && e != p6_dst) b.Batch.endpoints)

(* ------------------------------------------------------------------ *)
(* Seq_tracker.confirm_below                                           *)

module Table = Seq_tracker.Table

let test_confirm_below_counts_loss () =
  let t = Table.create ~keys:1 () in
  List.iter
    (fun s -> Table.observe t ~key:0 (Int64.of_int s))
    [ 0; 1; 4; 5 ] (* 2 and 3 provisionally missing *);
  Alcotest.(check int) "provisional loss" 2 (Table.lost_total t);
  Table.confirm_below t ~key:0 4L;
  Alcotest.(check int) "still lost after confirm" 2 (Table.lost_total t);
  (* A late arrival of a confirmed sequence is a duplicate, not a heal. *)
  Table.observe t ~key:0 2L;
  Alcotest.(check int) "confirmed loss cannot heal" 2 (Table.lost_total t);
  Alcotest.(check int) "late confirmed arrival is a dup" 1 (Table.duplicates_total t);
  Alcotest.(check int) "no reorder credited" 0 (Table.reordered_total t)

let test_confirm_below_is_idempotent () =
  let t = Table.create ~keys:1 () in
  List.iter (fun s -> Table.observe t ~key:0 (Int64.of_int s)) [ 0; 3 ];
  Table.confirm_below t ~key:0 3L;
  Table.confirm_below t ~key:0 3L;
  Table.confirm_below t ~key:0 2L;
  Alcotest.(check int) "loss counted once" 2 (Table.lost_total t)

(* ------------------------------------------------------------------ *)
(* Cross-domain differential determinism                               *)

(* Small but non-trivial: 128 flows x 400 generations exercises cache
   epochs (epoch = 25 gens), synthetic drops, reordering and the
   confirm_below pruning on every lane. *)
let diff_flows = 128
let diff_generations = 400

let run ~domains ~batch ~seed =
  Tango.Throughput.run ~domains ~batch ~flows:diff_flows
    ~generations:diff_generations ~seed ()

let test_differential_domains () =
  List.iter
    (fun seed ->
      let base = run ~domains:1 ~batch:64 ~seed in
      List.iter
        (fun domains ->
          let r = run ~domains ~batch:64 ~seed in
          let ctx what = Printf.sprintf "%s (seed %d, domains %d)" what seed domains in
          Alcotest.(check string)
            (ctx "fingerprint identical")
            (Tango.Throughput.fingerprint base)
            (Tango.Throughput.fingerprint r);
          Alcotest.(check int) (ctx "delivered") base.Tango.Throughput.delivered
            r.Tango.Throughput.delivered;
          Alcotest.(check int) (ctx "lost") base.Tango.Throughput.lost
            r.Tango.Throughput.lost;
          Alcotest.(check int) (ctx "reordered") base.Tango.Throughput.reordered
            r.Tango.Throughput.reordered;
          Alcotest.(check int) (ctx "duplicates") base.Tango.Throughput.duplicates
            r.Tango.Throughput.duplicates;
          Alcotest.(check int) (ctx "cache hits") base.Tango.Throughput.cache_hits
            r.Tango.Throughput.cache_hits;
          Alcotest.(check int) (ctx "cache misses") base.Tango.Throughput.cache_misses
            r.Tango.Throughput.cache_misses)
        [ 2; 4 ])
    [ 1; 7; 42 ]

let test_differential_batch_sizes () =
  (* Batch is a flush threshold, not a semantic knob: batch 1 and batch
     64 must agree packet-for-packet. *)
  let a = run ~domains:2 ~batch:1 ~seed:42 in
  let b = run ~domains:2 ~batch:64 ~seed:42 in
  Alcotest.(check string) "batch 1 = batch 64 fingerprint"
    (Tango.Throughput.fingerprint a) (Tango.Throughput.fingerprint b);
  Alcotest.(check int) "lost agrees" a.Tango.Throughput.lost b.Tango.Throughput.lost;
  Alcotest.(check int) "reordered agrees" a.Tango.Throughput.reordered
    b.Tango.Throughput.reordered

let test_differential_heavy_tail () =
  (* The same invariance on a heavy-tailed plan, where generations carry
     uneven send lists and batch boundaries fall mid-list: batch
     {1,7,64} x domains {1,2,4} must agree on the fingerprint, every
     total and every path's deliveries. *)
  let plan =
    Tango_workload.Load.plan
      (Tango_workload.Load.default_config ~flows:3_000 ~generations:160 ~seed:11 ())
  in
  let go ~domains ~batch = Tango.Throughput.run ~domains ~batch ~plan () in
  let base = go ~domains:1 ~batch:64 in
  let totals (r : Tango.Throughput.result) =
    [
      ("offered", r.offered);
      ("delivered", r.delivered);
      ("synthetic drops", r.synthetic_drops);
      ("lost", r.lost);
      ("reordered", r.reordered);
      ("duplicates", r.duplicates);
      ("cache hits", r.cache_hits);
      ("cache misses", r.cache_misses);
      ("merged", r.merged);
    ]
    @ List.init 4 (fun p -> (Printf.sprintf "path %d delivered" p, r.path_delivered.(p)))
  in
  Alcotest.(check bool) "plan exercises reordering" true (base.reordered > 0);
  List.iter
    (fun domains ->
      List.iter
        (fun batch ->
          let r = go ~domains ~batch in
          let ctx what = Printf.sprintf "%s (domains %d, batch %d)" what domains batch in
          Alcotest.(check string) (ctx "fingerprint")
            (Tango.Throughput.fingerprint base)
            (Tango.Throughput.fingerprint r);
          List.iter2
            (fun (name, a) (_, b) -> Alcotest.(check int) (ctx name) a b)
            (totals base) (totals r))
        [ 1; 7; 64 ])
    [ 1; 2; 4 ]

let test_conservation () =
  (* offered = delivered + synthetic drops; merged = delivered; tracker
     loss equals what the fabric never carried. *)
  let r = run ~domains:4 ~batch:64 ~seed:7 in
  Alcotest.(check int) "offered = flows x generations"
    (diff_flows * diff_generations)
    r.Tango.Throughput.offered;
  Alcotest.(check int) "offered = delivered + drops" r.Tango.Throughput.offered
    (r.Tango.Throughput.delivered + r.Tango.Throughput.synthetic_drops);
  Alcotest.(check int) "merged = delivered" r.Tango.Throughput.delivered
    r.Tango.Throughput.merged;
  Alcotest.(check int) "no duplicates in a clean fabric" 0
    r.Tango.Throughput.duplicates

(* ------------------------------------------------------------------ *)
(* Lane allocation                                                     *)

(* The lane loop allocates nothing per packet in steady state: what is
   left is the trackers' missing-sequence sets (loss and reordering
   only) and a few words per generation. Bounded on one domain for the
   uniform blast and for E16's heavy-tailed plan, whose bounded cache
   evicts on most misses. *)
let test_lane_allocation () =
  let bound name (r : Tango.Throughput.result) =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.4f minor words per offered packet <= 1" name
         r.minor_words_per_packet)
      true
      (r.minor_words_per_packet <= 1.0);
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.4f major words per offered packet <= 0.01" name
         r.major_words_per_packet)
      true
      (r.major_words_per_packet <= 0.01)
  in
  bound "blast (512 flows x 1000 generations)"
    (Tango.Throughput.run ~domains:1 ~flows:512 ~generations:1000 ~seed:42 ());
  let plan =
    Tango_workload.Load.plan
      (Tango_workload.Load.default_config ~flows:10_000 ~generations:256 ~seed:42 ())
  in
  let r =
    Tango.Throughput.run ~domains:1 ~plan ~cache_capacity:2_500
      ~tracker_ceiling:65_536 ()
  in
  Alcotest.(check bool) "heavy-tail cache evicts" true (r.cache_evictions > 0);
  bound "heavy-tail (10^4 flows x 256 generations, cache 2500)" r

(* Everything [Throughput.run] allocates on the calling domain, set-up
   included (plan, world build, rings, lane 0's loop, the sums at the
   join), per offered packet of the one-domain blast. The lanes fold
   their own arrivals, so nothing is allocated per delivered packet:
   no out-ring slot, no boxed scratch record. *)
let test_run_allocation () =
  let minor0, _, major0 = Gc.counters () in
  let r = Tango.Throughput.run ~domains:1 ~flows:512 ~generations:1000 ~seed:42 () in
  let minor1, _, major1 = Gc.counters () in
  let per words = words /. float_of_int r.Tango.Throughput.offered in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per offered packet <= 1" (per (minor1 -. minor0)))
    true
    (per (minor1 -. minor0) <= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "%.4f major words per offered packet <= 1" (per (major1 -. major0)))
    true
    (per (major1 -. major0) <= 1.0)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "shard"
    [
      ( "lane_of_hash",
        [
          tc "bounds" `Quick test_lane_of_hash_bounds;
          tc "stable" `Quick test_lane_of_hash_stable;
        ] );
      ( "ring",
        [
          tc "capacity rounding" `Quick test_ring_capacity_rounding;
          tc "fifo order" `Quick test_ring_fifo_order;
          tc "overflow raises" `Quick test_ring_overflow_raises;
          tc "wraps after drain" `Quick test_ring_wraps_after_drain;
        ] );
      ( "merge",
        [
          tc "time then lane order" `Quick test_merge_time_then_lane_order;
          tc "run: lanes on domains" `Quick test_run_single_producer_per_lane;
          tc "run: lane 0 on the caller" `Quick test_run_lane_zero_on_caller;
          tc "run: every lane joined on a raise" `Quick
            test_run_joins_every_lane_on_raise;
        ] );
      ( "columns",
        [
          tc "scatter by c" `Quick test_scatter_by_c;
          tc "drain_into order" `Quick test_drain_into_order;
          QCheck_alcotest.to_alcotest drain_into_qcheck_matches_sort;
        ] );
      ( "batch",
        [
          tc "fill and read" `Quick test_batch_fill_and_read;
          tc "encap columns" `Quick test_batch_encap_columns;
        ] );
      ( "allocation",
        [
          tc "lane words per packet" `Quick test_lane_allocation;
          tc "run words per packet" `Quick test_run_allocation;
        ] );
      ( "confirm_below",
        [
          tc "counts loss" `Quick test_confirm_below_counts_loss;
          tc "idempotent" `Quick test_confirm_below_is_idempotent;
        ] );
      ( "differential",
        [
          tc "domains {1,2,4} x seeds {1,7,42}" `Slow test_differential_domains;
          tc "batch 1 vs 64" `Quick test_differential_batch_sizes;
          tc "heavy-tail plan: batch {1,7,64} x domains {1,2,4}" `Quick
            test_differential_heavy_tail;
          tc "conservation" `Quick test_conservation;
        ] );
    ]
