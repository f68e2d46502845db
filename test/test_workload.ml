(* Tests for the workload layer: delay processes, the Fig. 4 scenario,
   traffic generators, and the in-order delivery model. *)

open Tango_workload
module Rng = Tango_sim.Rng
module Engine = Tango_sim.Engine
module Shard = Tango_sim.Shard
module Vultr = Tango_topo.Vultr

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Delay_process                                                       *)

(* One spike in an otherwise silent, noiseless process: the delay is
   the spike's contribution. *)
let test_spike_shape () =
  let s = { Delay_process.at_s = 10.0; magnitude_ms = 50.0; width_s = 2.0 } in
  let p =
    Delay_process.create ~seed:1
      ~events:[ Delay_process.Instability { start_s = 0.0; duration_s = 100.0; spikes = [ s ] } ]
      ()
  in
  let at time_s = Delay_process.value p ~time_s in
  check_float "before" 0.0 (at 9.9);
  check_float "onset" 50.0 (at 10.0);
  check_float "holds" 50.0 (at 11.0);
  check_float "sharp trailing edge" 0.0 (at 12.0)

let test_level_shift_floor () =
  let rng = Rng.create ~seed:1 in
  let event =
    Delay_process.make_route_change ~rng ~start_s:100.0 ~duration_s:60.0
      ~magnitude_ms:5.0 ()
  in
  let p = Delay_process.create ~seed:2 ~events:[ event ] () in
  check_float "before" 0.0 (Delay_process.floor_value p ~time_s:50.0);
  check_float "during" 5.0 (Delay_process.floor_value p ~time_s:130.0);
  check_float "after" 0.0 (Delay_process.floor_value p ~time_s:200.0)

let test_instability_peak_pinned () =
  let rng = Rng.create ~seed:3 in
  let event =
    Delay_process.make_instability ~rng ~start_s:100.0 ~duration_s:60.0
      ~rate_hz:0.5 ~max_magnitude_ms:50.0 ()
  in
  let p = Delay_process.create ~seed:4 ~events:[ event ] () in
  (* Scan the window: the cap spike guarantees the peak reaches 50. *)
  let peak = ref 0.0 in
  for i = 0 to 6000 do
    let t = 100.0 +. (float_of_int i /. 100.0) in
    peak := Float.max !peak (Delay_process.floor_value p ~time_s:t)
  done;
  check_float "peak equals cap" 50.0 !peak;
  (* Outside the window, nothing. *)
  check_float "quiet before" 0.0 (Delay_process.floor_value p ~time_s:99.0);
  check_float "quiet after" 0.0 (Delay_process.floor_value p ~time_s:161.6)

let test_instability_spikes_bounded () =
  let rng = Rng.create ~seed:5 in
  match
    Delay_process.make_instability ~rng ~start_s:0.0 ~duration_s:100.0
      ~rate_hz:1.0 ~max_magnitude_ms:50.0 ()
  with
  | Delay_process.Instability { spikes; _ } ->
      Alcotest.(check bool) "spikes exist" true (List.length spikes > 10);
      List.iter
        (fun (s : Delay_process.spike) ->
          Alcotest.(check bool) "magnitude capped" true (s.magnitude_ms <= 50.0);
          Alcotest.(check bool) "inside window" true
            (s.at_s >= 0.0 && s.at_s <= 100.0))
        spikes
  | Delay_process.Level_shift _ -> Alcotest.fail "wrong event type"

let test_diurnal_period () =
  let p =
    Delay_process.create ~seed:6 ~diurnal_amplitude_ms:2.0 ~diurnal_period_s:100.0 ()
  in
  let v0 = Delay_process.floor_value p ~time_s:0.0 in
  let v100 = Delay_process.floor_value p ~time_s:100.0 in
  check_float "periodic" v0 v100;
  let peak = Delay_process.floor_value p ~time_s:25.0 in
  check_float "amplitude" 2.0 peak

let test_white_noise_statistics () =
  let p = Delay_process.create ~seed:7 ~white_std_ms:0.33 () in
  let stats = Tango_sim.Stats.create () in
  for i = 0 to 20_000 do
    Tango_sim.Stats.add stats (Delay_process.value p ~time_s:(float_of_int i *. 0.01))
  done;
  (* Clamped at zero, so the observed std of a zero-floor process is
     below the nominal; it must still be clearly nonzero. *)
  Alcotest.(check bool) "noisy" true ((Tango_sim.Stats.summarize stats).stddev > 0.1)

let test_process_values_nonnegative () =
  let p =
    Delay_process.create ~seed:8 ~white_std_ms:1.0 ~ou_std_ms:1.0 ()
  in
  for i = 0 to 5_000 do
    let v = Delay_process.value p ~time_s:(float_of_int i *. 0.01) in
    if v < 0.0 then Alcotest.failf "negative delay %f" v
  done

let test_process_monotonic_clock_enforced () =
  let p = Delay_process.create ~seed:9 ~ou_std_ms:0.1 () in
  ignore (Delay_process.value p ~time_s:10.0);
  Alcotest.(check bool) "backwards rejected" true
    (try ignore (Delay_process.value p ~time_s:9.0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Fig4 scenario                                                       *)

let test_fig4_windows () =
  let sc = Fig4.create ~horizon_s:600.0 () in
  let rc0, rc1 = Fig4.route_change_window sc in
  let i0, i1 = Fig4.instability_window sc in
  check_float "rc start" 240.0 rc0;
  check_float "rc stop" 360.0 rc1;
  check_float "inst start" 420.0 i0;
  check_float "inst stop" 480.0 i1

let test_fig4_gtt_westbound_has_events () =
  let sc = Fig4.create () in
  match Fig4.process_for sc ~transit:Vultr.gtt ~toward:Vultr.vultr_la with
  | None -> Alcotest.fail "missing GTT westbound process"
  | Some p ->
      let rc0, _ = Fig4.route_change_window sc in
      (* Level shift is +5 ms inside its window. *)
      Alcotest.(check bool) "shift visible" true
        (Delay_process.floor_value p ~time_s:(rc0 +. 10.0) >= 4.9)

let test_fig4_unrelated_links_zero () =
  let sc = Fig4.create () in
  Alcotest.(check bool) "no process on peer links" true
    (Option.is_none (Fig4.process_for sc ~transit:Vultr.ntt ~toward:Vultr.cogent))

let test_fig4_telia_noisier_than_gtt_eastbound () =
  let sc = Fig4.create ~seed:21 () in
  let sample transit =
    match Fig4.process_for sc ~transit ~toward:Vultr.vultr_ny with
    | None -> Alcotest.fail "missing process"
    | Some p ->
        let stats = Tango_sim.Stats.create () in
        for i = 0 to 5_000 do
          Tango_sim.Stats.add stats (Delay_process.value p ~time_s:(float_of_int i *. 0.01))
        done;
        (Tango_sim.Stats.summarize stats).stddev
  in
  let telia = sample Vultr.telia and gtt = sample Vultr.gtt in
  Alcotest.(check bool) "telia much noisier" true (telia > (5.0 *. gtt))

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)

let test_traffic_periodic_count () =
  let e = Engine.create () in
  let count = ref 0 in
  Traffic.periodic e ~interval_s:0.01 ~until_s:1.0 (fun _ -> incr count);
  Engine.run e;
  (* Ticks at 0.00, 0.01, ...; float accumulation may or may not include
     the tick at exactly 1.00. *)
  Alcotest.(check bool) "100 Hz for 1 s" true (!count >= 100 && !count <= 101)

let test_traffic_periodic_start () =
  let e = Engine.create () in
  let first = ref nan in
  Traffic.periodic e ~interval_s:0.5 ~start_s:2.0 ~until_s:3.0 (fun e ->
      if Float.is_nan !first then first := Engine.now e);
  Engine.run e;
  check_float "starts at 2" 2.0 !first

(* ------------------------------------------------------------------ *)
(* Inorder                                                             *)

(* The arrival times of the run the last [arrive] released. *)
let run_arrivals io n = List.init n (Inorder.run_arrival io)

let test_inorder_sequential () =
  let io = Inorder.create () in
  let r0 = Inorder.arrive io ~seq:0 ~time:1.0 in
  Alcotest.(check (list (float 1e-9))) "release 0" [ 1.0 ] (run_arrivals io r0);
  let r1 = Inorder.arrive io ~seq:1 ~time:2.0 in
  Alcotest.(check (list (float 1e-9))) "release 1" [ 2.0 ] (run_arrivals io r1);
  (* Nothing was buffered: the next packet releases only itself. *)
  Alcotest.(check int) "pending" 1 (Inorder.arrive io ~seq:2 ~time:3.0)

let test_inorder_head_of_line () =
  let io = Inorder.create () in
  ignore (Inorder.arrive io ~seq:0 ~time:1.0);
  (* Packet 1 is delayed; 2 and 3 arrive and must wait. *)
  Alcotest.(check int) "2 blocked" 0 (Inorder.arrive io ~seq:2 ~time:1.1);
  Alcotest.(check int) "3 blocked" 0 (Inorder.arrive io ~seq:3 ~time:1.2);
  (* Packet 1 releases 1, 2 and 3 at 1.5 s: the two pending behind it. *)
  let n = Inorder.arrive io ~seq:1 ~time:1.5 in
  Alcotest.(check int) "two pending" 3 n;
  Alcotest.(check (list (float 1e-9))) "burst release" [ 1.5; 1.1; 1.2 ]
    (run_arrivals io n);
  (* Packet 2 waited 0.4 s behind the slow packet 1. *)
  Alcotest.(check (float 1e-6)) "hol extra" 0.4 (1.5 -. Inorder.run_arrival io 1);
  Alcotest.(check (float 1e-6)) "unblocking packet itself" 0.0
    (1.5 -. Inorder.run_arrival io 0);
  Alcotest.(check bool) "outside the run" true
    (try
       ignore (Inorder.run_arrival io 3);
       false
     with Invalid_argument _ -> true)

let test_inorder_duplicates_ignored () =
  let io = Inorder.create () in
  let first = Inorder.arrive io ~seq:0 ~time:1.0 in
  Alcotest.(check int) "dup ignored" 0 (Inorder.arrive io ~seq:0 ~time:2.0);
  Alcotest.(check int) "one released" 1 first

let inorder_qcheck_all_released =
  QCheck.Test.make ~name:"any permutation fully releases in order" ~count:200
    QCheck.(int_bound 30)
    (fun n ->
      let io = Inorder.create () in
      let arr = Array.init (n + 1) Fun.id in
      let rng = Rng.create ~seed:(n + 100) in
      Tango_sim.Rng.shuffle rng arr;
      (* Packet [arr.(i)] arrives at time [i]: each release must report
         the arrival time of the packet in that position of the run. *)
      let arrived_at = Array.make (n + 1) 0 in
      Array.iteri (fun i seq -> arrived_at.(seq) <- i) arr;
      let runs_ok = ref true and total = ref 0 in
      Array.iteri
        (fun i seq ->
          let released = Inorder.arrive io ~seq ~time:(float_of_int i) in
          let first = !total in
          total := !total + released;
          for k = 0 to released - 1 do
            if
              not
                (Float.equal (Inorder.run_arrival io k)
                   (float_of_int arrived_at.(first + k)))
            then runs_ok := false
          done)
        arr;
      (* Every packet released, so none is left pending. *)
      !runs_ok && !total = n + 1)

(* ------------------------------------------------------------------ *)
(* Load: the million-flow workload engine (DESIGN.md §14)              *)

(* Truncated-Pareto maximum-likelihood tail estimate, solved by
   bisection on the score function: for pdf
   f(x) = a lo^a x^-(a+1) / (1 - (lo/hi)^a) the derivative of the
   log-likelihood in [a] is
   n/a - sum ln(x/lo) + n b^a ln b / (1 - b^a),  b = lo/hi. *)
let pareto_mle ~lo ~hi samples =
  let n = float_of_int (Array.length samples) in
  let sum_ln = Array.fold_left (fun s x -> s +. log (x /. lo)) 0.0 samples in
  let b = lo /. hi in
  let score a =
    let ba = b ** a in
    (n /. a) -. sum_ln +. (n *. ba *. log b /. (1.0 -. ba))
  in
  let rec bisect a0 a1 i =
    let m = (a0 +. a1) /. 2.0 in
    if i = 0 then m else if score m > 0.0 then bisect m a1 (i - 1) else bisect a0 m (i - 1)
  in
  bisect 0.2 5.0 60

let test_pareto_tail_exponent_ci () =
  let alpha = 1.3 and lo = 8.0 and hi = 2000.0 in
  let rng = Rng.create ~seed:42 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Load.bounded_pareto rng ~alpha ~lo ~hi) in
  Array.iter
    (fun x ->
      if x < lo || x > hi then Alcotest.failf "sample %f outside [%g, %g]" x lo hi)
    samples;
  (* The MLE's asymptotic standard error is ~alpha/sqrt(n) ~ 0.009 here;
     +-0.05 is a generous >4-sigma band. *)
  let a_hat = pareto_mle ~lo ~hi samples in
  if Float.abs (a_hat -. alpha) > 0.05 then
    Alcotest.failf "tail exponent MLE %.4f outside %.2f +- 0.05" a_hat alpha

let pareto_qcheck_bounds_and_median =
  QCheck.Test.make ~name:"bounded-Pareto draws respect bounds and median"
    ~count:60
    QCheck.(pair (int_bound 10_000) (int_range 9 22))
    (fun (seed, alpha10) ->
      let alpha = float_of_int alpha10 /. 10.0 in
      let lo = 8.0 and hi = 2000.0 in
      let rng = Rng.create ~seed in
      let n = 2_000 in
      let samples = Array.init n (fun _ -> Load.bounded_pareto rng ~alpha ~lo ~hi) in
      let in_bounds = Array.for_all (fun x -> x >= lo && x <= hi) samples in
      (* Inverse CDF at 1/2: the empirical mass below it is binomial
         (n, 1/2); 4 sigma = 4 * sqrt(1/4n). *)
      let b = (lo /. hi) ** alpha in
      let median = lo *. ((1.0 -. (0.5 *. (1.0 -. b))) ** (-1.0 /. alpha)) in
      let below =
        Array.fold_left (fun c x -> if x <= median then c + 1 else c) 0 samples
      in
      let dev = Float.abs ((float_of_int below /. float_of_int n) -. 0.5) in
      in_bounds && dev <= 4.0 *. sqrt (0.25 /. float_of_int n))

let diurnal_qcheck_mass_conserved =
  QCheck.Test.make ~name:"diurnal weights conserve total arrival mass"
    ~count:100
    QCheck.(triple (int_range 16 2048) (int_range 1 6) (int_bound 89))
    (fun (gens, waves, depth100) ->
      let waves = float_of_int waves in
      let depth = float_of_int depth100 /. 100.0 in
      let cum = Load.diurnal_cumulative ~generations:gens ~waves ~depth in
      (* The weights are the table's steps: all positive, so the table
         is (strictly) monotone, and they sum to its last entry. *)
      let positive = ref true in
      Array.iteri
        (fun i c ->
          let w = if i = 0 then c else c -. cum.(i - 1) in
          if w <= 0.0 then positive := false)
        cum;
      !positive
      && Array.length cum = gens
      && Float.abs (cum.(gens - 1) -. float_of_int gens) < 1e-6 *. float_of_int gens)

let summary p = Format.asprintf "%a" Load.pp_summary p

let total_packets p = List.fold_left ( + ) 0 (List.init (Load.flows p) (Load.flow_pkts p))

let load_qcheck_same_seed_identical =
  QCheck.Test.make ~name:"same seed builds a byte-identical schedule"
    ~count:40
    QCheck.(pair (int_range 100 2_000) (int_bound 10_000))
    (fun (flows, seed) ->
      let cfg = Load.default_config ~flows ~generations:64 ~seed () in
      let p1 = Load.plan cfg and p2 = Load.plan cfg in
      (* The summary plus the whole schedule itself. *)
      let same = ref true in
      for f = 0 to flows - 1 do
        if Load.flow_pkts p1 f <> Load.flow_pkts p2 f then same := false;
        for g = 0 to 63 do
          if
            Load.sends_at p1 ~flow:f ~gen:g <> Load.sends_at p2 ~flow:f ~gen:g
          then same := false
        done
      done;
      String.equal (summary p1) (summary p2) && !same)

let test_load_seed_changes_schedule () =
  let p seed =
    Load.plan (Load.default_config ~flows:2_000 ~generations:64 ~seed ())
  in
  let sizes p = List.init (Load.flows p) (Load.flow_pkts p) in
  Alcotest.(check bool) "seeds 1 and 2 differ" false (sizes (p 1) = sizes (p 2))

let load_qcheck_class_mix =
  QCheck.Test.make ~name:"class mix lands within a 4-sigma binomial CI"
    ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let flows = 20_000 in
      let p = Load.plan (Load.default_config ~flows ~generations:32 ~seed ()) in
      let rpc, bulk, video =
        Scanf.sscanf (summary p) "flows=%_d (rpc=%d bulk=%d video=%d)" (fun r b v -> (r, b, v))
      in
      let within share count =
        let n = float_of_int flows in
        let sigma = sqrt (share *. (1.0 -. share) /. n) in
        Float.abs ((float_of_int count /. n) -. share) <= 4.0 *. sigma
      in
      rpc + bulk + video = flows
      && within 0.5 rpc && within 0.3 bulk && within 0.2 video)

let load_qcheck_schedule_accounting =
  QCheck.Test.make
    ~name:"gen_sends/total_packets/max_gen_sends/seq_index agree with sends_at"
    ~count:30
    QCheck.(pair (int_range 50 500) (int_bound 10_000))
    (fun (flows, seed) ->
      let gens = 96 in
      let p = Load.plan (Load.default_config ~flows ~generations:gens ~seed ()) in
      let ok = ref true in
      let total = ref 0 and peak = ref 0 in
      for g = 0 to gens - 1 do
        let c = ref 0 in
        for f = 0 to flows - 1 do
          if Load.sends_at p ~flow:f ~gen:g then incr c
        done;
        total := !total + !c;
        if !c > !peak then peak := !c
      done;
      (* Tunnel sequences: each flow numbers its sends 0, 1, 2, ... in
         generation order, with no gaps — the invariant Seq_tracker's
         loss accounting rests on. *)
      for f = 0 to flows - 1 do
        let k = ref 0 in
        for g = 0 to gens - 1 do
          if Load.sends_at p ~flow:f ~gen:g then begin
            if Load.seq_index p ~flow:f ~gen:g <> !k then ok := false;
            incr k
          end
        done;
        if !k > Load.flow_pkts p f then ok := false
      done;
      !ok && !total = total_packets p && !peak = Load.max_gen_sends p)

let test_load_uniform_matches_e14_blast () =
  let p = Load.uniform ~flows:16 ~generations:10 in
  Alcotest.(check int) "every flow every generation" 160 (total_packets p);
  Alcotest.(check int) "peak generation" 16 (Load.max_gen_sends p);
  for f = 0 to 15 do
    for g = 0 to 9 do
      Alcotest.(check bool) "sends" true (Load.sends_at p ~flow:f ~gen:g);
      Alcotest.(check int) "seq is the generation" g
        (Load.seq_index p ~flow:f ~gen:g)
    done
  done

(* Compiled send lists against the reference schedule: for every
   generation, the slice holds exactly the lane's flows where [sends_at]
   holds, each once, in ascending flow order, numbered by [seq_index].
   Plans vary the class mix and the video stride (and include the
   uniform blast); horizons of 1 to 160 generations fill one to five
   32-generation windows, the last one partly; lanes are
   [Shard.lane_of_hash] subsets at 1-4 lanes. *)
let sends_qcheck_matches_reference =
  QCheck.Test.make
    ~name:"compiled send lists = sends_at/seq_index, ascending, each once"
    ~count:200
    QCheck.(
      pair
        (quad (int_range 1 300) (int_range 1 160) (int_bound 10_000) (int_range 1 9))
        (pair (int_bound 3) (int_range 1 4)))
    (fun ((flows, gens, seed, video_stride), (mix_i, lanes)) ->
      let plan =
        if mix_i = 3 then Load.uniform ~flows ~generations:gens
        else
          let mix =
            match mix_i with
            | 0 -> { Load.rpc = 0.5; bulk = 0.3; video = 0.2 }
            | 1 -> { Load.rpc = 0.1; bulk = 0.2; video = 0.7 }
            | _ -> { Load.rpc = 0.0; bulk = 0.0; video = 1.0 }
          in
          Load.plan
            { (Load.default_config ~flows ~generations:gens ~seed ()) with
              mix; video_stride }
      in
      let lane_of f = Shard.lane_of_hash ~lanes (Hashtbl.hash (seed, f)) in
      let ok = ref true in
      for lane = 0 to lanes - 1 do
        let own = List.filter (fun f -> lane_of f = lane) (List.init flows Fun.id) in
        let own = Array.of_list own in
        let s = Load.Sends.create plan ~flows:own in
        for gen = 0 to gens - 1 do
          Load.Sends.seek s ~gen;
          let sf = Load.Sends.flows s and sq = Load.Sends.seqs s in
          let lo = Load.Sends.first s ~gen and hi = Load.Sends.stop s ~gen in
          let expect =
            Array.fold_left
              (fun n f -> if Load.sends_at plan ~flow:f ~gen then n + 1 else n)
              0 own
          in
          if hi - lo <> expect then ok := false;
          for i = lo to hi - 1 do
            let f = sf.(i) in
            if lane_of f <> lane || not (Load.sends_at plan ~flow:f ~gen) then
              ok := false;
            if sq.(i) <> Load.seq_index plan ~flow:f ~gen then ok := false;
            if i > lo && sf.(i - 1) >= f then ok := false
          done
        done
      done;
      !ok)

let test_sends_rejects_misuse () =
  let plan = Load.plan (Load.default_config ~flows:50 ~generations:40 ~seed:3 ()) in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "unsorted flows rejected" true
    (raises (fun () -> ignore (Load.Sends.create plan ~flows:[| 3; 1 |])));
  Alcotest.(check bool) "flow outside the plan rejected" true
    (raises (fun () -> ignore (Load.Sends.create plan ~flows:[| 50 |])));
  (* The 40 generations compile in windows [0, 32) and [32, 40). *)
  let s = Load.Sends.create plan ~flows:(Array.init 50 Fun.id) in
  Load.Sends.seek s ~gen:35;
  Alcotest.(check bool) "seeking behind the window rejected" true
    (raises (fun () -> Load.Sends.seek s ~gen:3));
  Alcotest.(check bool) "seeking past the horizon rejected" true
    (raises (fun () -> Load.Sends.seek s ~gen:40));
  Alcotest.(check bool) "reading outside the window rejected" true
    (raises (fun () -> ignore (Load.Sends.first s ~gen:30)))

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_workload"
    [
      ( "delay_process",
        [
          tc "spike shape" `Quick test_spike_shape;
          tc "level shift floor" `Quick test_level_shift_floor;
          tc "instability peak pinned" `Quick test_instability_peak_pinned;
          tc "spikes bounded" `Quick test_instability_spikes_bounded;
          tc "diurnal period" `Quick test_diurnal_period;
          tc "white noise stats" `Slow test_white_noise_statistics;
          tc "non-negative" `Quick test_process_values_nonnegative;
          tc "monotonic clock" `Quick test_process_monotonic_clock_enforced;
        ] );
      ( "fig4",
        [
          tc "windows" `Quick test_fig4_windows;
          tc "gtt westbound events" `Quick test_fig4_gtt_westbound_has_events;
          tc "unrelated links zero" `Quick test_fig4_unrelated_links_zero;
          tc "telia noisier than gtt" `Slow test_fig4_telia_noisier_than_gtt_eastbound;
        ] );
      ( "traffic",
        [
          tc "periodic count" `Quick test_traffic_periodic_count;
          tc "periodic start" `Quick test_traffic_periodic_start;
        ] );
      ( "inorder",
        [
          tc "sequential" `Quick test_inorder_sequential;
          tc "head of line" `Quick test_inorder_head_of_line;
          tc "duplicates" `Quick test_inorder_duplicates_ignored;
          qc inorder_qcheck_all_released;
        ] );
      ( "load",
        [
          tc "pareto tail exponent MLE" `Slow test_pareto_tail_exponent_ci;
          qc pareto_qcheck_bounds_and_median;
          qc diurnal_qcheck_mass_conserved;
          qc load_qcheck_same_seed_identical;
          tc "seed changes schedule" `Quick test_load_seed_changes_schedule;
          qc load_qcheck_class_mix;
          qc load_qcheck_schedule_accounting;
          tc "uniform is the E14 blast" `Quick test_load_uniform_matches_e14_blast;
          qc sends_qcheck_matches_reference;
          tc "send lists reject misuse" `Quick test_sends_rejects_misuse;
        ] );
    ]
