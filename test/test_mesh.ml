(* Tests for lib/mesh: CSR topology invariants, the segment-stack wire
   codec, arborescence validity and the low/high vertex-disjointness
   theorem behind O(1) failover, and end-to-end Mesh.run guarantees —
   seed-determinism of the fingerprint, bounded tree rotations, zero
   re-discovery after a relay kill, and partition recovery. *)

module Mtopo = Tango_mesh.Mtopo
module Segment = Tango_mesh.Segment
module Arbor = Tango_mesh.Arbor
module Mesh = Tango_mesh.Mesh
module Scenario = Tango_faults.Scenario
module Spec = Tango_faults.Spec

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)

let test_topo_csr () =
  let t = Mtopo.generate ~pops:32 ~seed:42 () in
  Alcotest.(check int) "pops" 32 (Mtopo.pops t);
  for p = 0 to 31 do
    Alcotest.(check bool) "degree >= 2" true (Mtopo.degree t p >= 2);
    for s = Mtopo.slot_base t p to Mtopo.slot_base t p + Mtopo.degree t p - 1 do
      let q = Mtopo.slot_dst t s in
      Alcotest.(check bool) "no self edge" true (q <> p);
      (* Reverse slot is an involution and lands back on [p]. *)
      let r = Mtopo.slot_rev t s in
      Alcotest.(check int) "rev rev" s (Mtopo.slot_rev t r);
      Alcotest.(check int) "rev dst" p (Mtopo.slot_dst t r);
      (* Binary-search lookup agrees with the row scan. *)
      Alcotest.(check int) "slot lookup" s (Mtopo.slot t ~src:p ~dst:q);
      Alcotest.(check bool)
        "latency positive symmetric" true
        (Mtopo.slot_lat_ms t s > 0.0
        && Mtopo.slot_lat_ms t s = Mtopo.slot_lat_ms t r)
    done
  done;
  Alcotest.(check int) "non-adjacent" (-1)
    (let s = ref (-1) in
     (* Find some non-adjacent pair; the mesh is sparse so one exists. *)
     (try
        for q = 0 to 31 do
          if q <> 0 && Mtopo.slot t ~src:0 ~dst:q < 0 then begin
            s := Mtopo.slot t ~src:0 ~dst:q;
            raise Exit
          end
        done
      with Exit -> ());
     !s)

let test_topo_deterministic () =
  let a = Mtopo.generate ~pops:24 ~seed:7 ()
  and b = Mtopo.generate ~pops:24 ~seed:7 () in
  Alcotest.(check int) "edges equal" (Mtopo.edges a) (Mtopo.edges b);
  for s = 0 to Mtopo.edges a - 1 do
    Alcotest.(check int) "slot dst equal" (Mtopo.slot_dst a s) (Mtopo.slot_dst b s)
  done

let test_topo_regions () =
  let t = Mtopo.generate ~pops:16 ~seed:42 () in
  let seen = Array.make 4 false in
  for p = 0 to 15 do
    let r = Mtopo.region t p in
    Alcotest.(check bool) "region in range" true (r >= 0 && r < 4);
    seen.(r) <- true
  done;
  Alcotest.(check bool) "several regions inhabited" true
    (Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen >= 2)

(* ------------------------------------------------------------------ *)
(* Segment-stack codec                                                 *)

let fill_stack st =
  st.Segment.flags <- 0;
  st.Segment.tree <- 2;
  st.Segment.top <- 1;
  st.Segment.src <- 3;
  st.Segment.dst <- 200;
  st.Segment.flow <- 77;
  st.Segment.seq <- 123456;
  st.Segment.count <- 5;
  st.Segment.hop_budget <- 250;
  for i = 0 to 4 do
    st.Segment.hops.(i) <- 10 + i;
    st.Segment.seg_path.(i) <- i land 3
  done

let test_segment_roundtrip () =
  let st = Segment.create_stack () in
  fill_stack st;
  let buf = Bytes.create Segment.max_header_bytes in
  let len = Segment.encode_into ~buf ~off:0 st in
  Alcotest.(check int) "encoded size" (18 + (4 * 5)) len;
  Alcotest.(check int) "frame size" (Segment.frame_bytes st) len;
  let out = Segment.create_stack () in
  Alcotest.(check bool) "decodes" true
    (Segment.decode_into ~buf ~off:0 ~len out);
  Alcotest.(check int) "tree" 2 out.Segment.tree;
  Alcotest.(check int) "top" 1 out.Segment.top;
  Alcotest.(check int) "src" 3 out.Segment.src;
  Alcotest.(check int) "dst" 200 out.Segment.dst;
  Alcotest.(check int) "flow" 77 out.Segment.flow;
  Alcotest.(check int) "seq" 123456 out.Segment.seq;
  Alcotest.(check int) "count" 5 out.Segment.count;
  Alcotest.(check int) "hop budget" 250 out.Segment.hop_budget;
  for i = 0 to 4 do
    Alcotest.(check int) "hop" (10 + i) out.Segment.hops.(i);
    Alcotest.(check int) "seg path" (i land 3) out.Segment.seg_path.(i)
  done

let test_segment_garbage () =
  let st = Segment.create_stack () in
  fill_stack st;
  let buf = Bytes.create Segment.max_header_bytes in
  let len = Segment.encode_into ~buf ~off:0 st in
  let out = Segment.create_stack () in
  (* Truncated buffer. *)
  Alcotest.(check bool) "short" false
    (Segment.decode_into ~buf ~off:0 ~len:(len - 1) out);
  (* Wrong version byte. *)
  let save = Bytes.get buf 0 in
  Bytes.set buf 0 '\xff';
  Alcotest.(check bool) "bad version" false
    (Segment.decode_into ~buf ~off:0 ~len out);
  Bytes.set buf 0 save;
  (* top beyond count is impossible on the wire. *)
  let st2 = Segment.create_stack () in
  fill_stack st2;
  st2.Segment.top <- 6;
  let len2 = Segment.encode_into ~buf ~off:0 st2 in
  Alcotest.(check bool) "top > count" false
    (Segment.decode_into ~buf ~off:0 ~len:len2 out)

let test_segment_patch () =
  let st = Segment.create_stack () in
  fill_stack st;
  let buf = Bytes.create Segment.max_header_bytes in
  let len = Segment.encode_into ~buf ~off:0 st in
  st.Segment.flags <- Segment.flag_arbor;
  st.Segment.tree <- 1;
  st.Segment.top <- 4;
  st.Segment.hop_budget <- 200;
  Segment.patch_cursor ~buf ~off:0 st;
  let out = Segment.create_stack () in
  Alcotest.(check bool) "decodes" true (Segment.decode_into ~buf ~off:0 ~len out);
  Alcotest.(check int) "patched flags" Segment.flag_arbor out.Segment.flags;
  Alcotest.(check int) "patched tree" 1 out.Segment.tree;
  Alcotest.(check int) "patched top" 4 out.Segment.top;
  Alcotest.(check int) "patched budget" 200 out.Segment.hop_budget;
  (* Immutable fields untouched. *)
  Alcotest.(check int) "seq still" 123456 out.Segment.seq;
  Alcotest.(check int) "count still" 5 out.Segment.count

(* ------------------------------------------------------------------ *)
(* Arborescences                                                       *)

(* Follow [tree] from [from] toward [dst]; the visited path including
   both endpoints, or None if it overruns [pops] hops or dead-ends. *)
let walk arbor ~dst ~tree ~from =
  let n = Arbor.pops arbor in
  let rec go v acc steps =
    if v = dst then Some (List.rev (v :: acc))
    else if steps > n then None
    else
      let p = Arbor.next_hop arbor ~dst ~tree ~pop:v in
      if p < 0 then None else go p (v :: acc) (steps + 1)
  in
  go from [] 0

let arbor_qcheck_valid =
  QCheck.Test.make ~name:"every tree is a spanning in-tree" ~count:40
    QCheck.(pair (int_range 4 40) (int_range 0 999))
    (fun (pops, seed) ->
      let topo = Mtopo.generate ~pops ~seed () in
      let arbor = Arbor.build ~k:3 topo in
      let ok = ref true in
      for dst = 0 to pops - 1 do
        for v = 0 to pops - 1 do
          if v <> dst then
            for tree = 0 to 2 do
              match walk arbor ~dst ~tree ~from:v with
              | Some _ -> ()
              | None -> ok := false
            done
        done
      done;
      !ok)

let arbor_qcheck_disjoint =
  QCheck.Test.make
    ~name:"low/high tree paths are internally vertex-disjoint" ~count:40
    QCheck.(pair (int_range 4 40) (int_range 0 999))
    (fun (pops, seed) ->
      let topo = Mtopo.generate ~pops ~seed () in
      let arbor = Arbor.build ~k:3 topo in
      let ok = ref true in
      for dst = 0 to pops - 1 do
        for v = 0 to pops - 1 do
          if v <> dst then begin
            let interior path =
              match path with
              | Some p -> List.filter (fun x -> x <> v && x <> dst) p
              | None -> []
            in
            let low = interior (walk arbor ~dst ~tree:1 ~from:v)
            and high = interior (walk arbor ~dst ~tree:2 ~from:v) in
            List.iter (fun x -> if List.mem x high then ok := false) low
          end
        done
      done;
      !ok)

let test_arbor_tree0_shortest () =
  let topo = Mtopo.generate ~pops:24 ~seed:42 () in
  let arbor = Arbor.build ~k:3 topo in
  for dst = 0 to 23 do
    for v = 0 to 23 do
      if v <> dst then
        match walk arbor ~dst ~tree:0 ~from:v with
        | None -> Alcotest.fail "tree 0 dead end"
        | Some path ->
            Alcotest.(check int) "tree 0 realizes BFS depth"
              (Arbor.depth arbor ~dst ~pop:v)
              (List.length path - 1)
    done
  done

let test_arbor_limits () =
  let topo = Mtopo.generate ~pops:8 ~seed:1 () in
  let invalid f =
    try
      ignore (f ());
      false
    with Tango_mesh.Err.Invalid _ -> true
  in
  Alcotest.(check bool) "k = 0 rejected" true (invalid (fun () -> Arbor.build ~k:0 topo));
  Alcotest.(check bool) "k = 256 rejected" true
    (invalid (fun () -> Arbor.build ~k:256 topo));
  (* k = 1 and k = 2 still produce spanning trees. *)
  List.iter
    (fun k ->
      let a = Arbor.build ~k topo in
      for dst = 0 to 7 do
        for v = 0 to 7 do
          if v <> dst then
            for tree = 0 to k - 1 do
              if walk a ~dst ~tree ~from:v = None then
                Alcotest.fail (Printf.sprintf "k=%d dead end" k)
            done
        done
      done)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Mesh.run                                                            *)

let relay_kill_specs () = (Scenario.get "relay-kill").Scenario.specs

let test_mesh_determinism () =
  List.iter
    (fun seed ->
      List.iter
        (fun pops ->
          let specs = relay_kill_specs () in
          let a = Mesh.run ~pops ~seed ~specs ()
          and b = Mesh.run ~pops ~seed ~specs () in
          Alcotest.(check string)
            (Printf.sprintf "fingerprint seed %d pops %d" seed pops)
            a.Mesh.fingerprint b.Mesh.fingerprint;
          Alcotest.(check int) "delivered equal" a.Mesh.delivered b.Mesh.delivered)
        [ 4; 16; 64 ])
    [ 1; 7; 42 ]

let test_mesh_seed_sensitivity () =
  let a = Mesh.run ~pops:16 ~seed:1 ()
  and b = Mesh.run ~pops:16 ~seed:7 () in
  Alcotest.(check bool) "different seeds, different fingerprints" true
    (not (String.equal a.Mesh.fingerprint b.Mesh.fingerprint))

let test_mesh_relay_kill_o1 () =
  let r = Mesh.run ~pops:64 ~seed:42 ~specs:(relay_kill_specs ()) () in
  Alcotest.(check bool) "a relay was killed" true (r.Mesh.killed >= 0);
  Alcotest.(check bool) "flows were affected" true (r.Mesh.affected_flows > 0);
  Alcotest.(check int) "no discovery traffic after the fault" 0
    r.Mesh.discovery_after_fault;
  Alcotest.(check bool) "reroute work bounded by tree count" true
    (r.Mesh.max_rotations <= r.Mesh.trees);
  Alcotest.(check int) "every affected flow recovered" 0 r.Mesh.unrecovered;
  Alcotest.(check bool) "recovery within 300 ms" true
    (r.Mesh.recovery_ms >= 0.0 && r.Mesh.recovery_ms <= 300.0);
  Alcotest.(check bool) "detection ran" true (r.Mesh.detect_ms > 0.0);
  Alcotest.(check bool) "membership converged on the death" true
    (r.Mesh.convergence_ms > 0.0)

let test_mesh_partition_recovers () =
  let specs = (Scenario.get "mesh-partition").Scenario.specs in
  let r = Mesh.run ~pops:32 ~seed:42 ~specs () in
  Alcotest.(check bool) "flows crossed the cut" true (r.Mesh.affected_flows > 0);
  Alcotest.(check int) "no discovery traffic after the cut" 0
    r.Mesh.discovery_after_fault;
  Alcotest.(check int) "every affected flow recovered after heal" 0
    r.Mesh.unrecovered

let test_mesh_validation () =
  let invalid f =
    try
      ignore (f ());
      false
    with Tango_mesh.Err.Invalid _ -> true
  in
  Alcotest.(check bool) "pairwise kind rejected" true
    (invalid (fun () ->
         Mesh.run
           ~specs:[ Spec.v ~start_s:1.0 ~duration_s:2.0 Spec.Blackhole ]
           ()));
  Alcotest.(check bool) "window past horizon rejected" true
    (invalid (fun () ->
         Mesh.run ~duration_s:5.0
           ~specs:[ Spec.v ~start_s:4.0 ~duration_s:4.0 Spec.Relay_kill ]
           ()));
  Alcotest.(check bool) "kill target outside mesh rejected" true
    (invalid (fun () ->
         Mesh.run ~pops:8
           ~specs:[ Spec.v ~path:9 ~start_s:1.0 ~duration_s:2.0 Spec.Relay_kill ]
           ()));
  (* NaN passes an [x <= 0.0] test: a NaN quarantine would run until
     the first conviction and then fail scheduling the release. The
     set-up checks refuse it before any event runs, and a NaN horizon
     or packet interval too. *)
  Alcotest.(check bool) "NaN quarantine rejected" true
    (invalid (fun () -> Mesh.run ~attest:true ~quarantine_s:Float.nan ()));
  Alcotest.(check bool) "NaN duration rejected" true
    (invalid (fun () -> Mesh.run ~duration_s:Float.nan ()));
  Alcotest.(check bool) "NaN packet interval rejected" true
    (invalid (fun () -> Mesh.run ~pkt_interval_s:Float.nan ()))

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_mesh"
    [
      ( "mtopo",
        [
          tc "CSR invariants" `Quick test_topo_csr;
          tc "deterministic" `Quick test_topo_deterministic;
          tc "regions" `Quick test_topo_regions;
        ] );
      ( "segment",
        [
          tc "roundtrip" `Quick test_segment_roundtrip;
          tc "garbage" `Quick test_segment_garbage;
          tc "patch cursor" `Quick test_segment_patch;
        ] );
      ( "arbor",
        [
          qc arbor_qcheck_valid;
          qc arbor_qcheck_disjoint;
          tc "tree 0 shortest" `Quick test_arbor_tree0_shortest;
          tc "limits" `Quick test_arbor_limits;
        ] );
      ( "mesh",
        [
          tc "determinism" `Slow test_mesh_determinism;
          tc "seed sensitivity" `Quick test_mesh_seed_sensitivity;
          tc "relay kill O(1)" `Quick test_mesh_relay_kill_o1;
          tc "partition recovers" `Quick test_mesh_partition_recovers;
          tc "validation" `Quick test_mesh_validation;
        ] );
    ]
