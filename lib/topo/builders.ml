let chain n =
  if n < 1 then invalid_arg "Builders.chain: need at least one node";
  let t = Topology.create () in
  for i = 0 to n - 1 do
    Topology.add_node t ~id:i ~asn:i (Printf.sprintf "chain-%d" i)
  done;
  for i = 0 to n - 2 do
    Topology.connect t ~provider:i ~customer:(i + 1) ()
  done;
  t

let random_hierarchy ~seed ~tier1 ~tier2 ~stubs =
  if tier1 < 1 then invalid_arg "Builders.random_hierarchy: need a tier-1";
  let rng = Tango_sim.Rng.create ~seed in
  let t = Topology.create () in
  let next_id = ref 0 in
  let fresh name =
    let id = !next_id in
    incr next_id;
    Topology.add_node t ~id ~asn:id (Printf.sprintf "%s-%d" name id);
    id
  in
  let t1 = List.init tier1 (fun _ -> fresh "tier1") in
  let rec mesh = function
    | [] -> ()
    | a :: rest ->
        List.iter (fun b -> Topology.connect_peers t a b ()) rest;
        mesh rest
  in
  mesh t1;
  let t1_arr = Array.of_list t1 in
  let pick_distinct arr k =
    let k = min k (Array.length arr) in
    let shuffled = Array.copy arr in
    Tango_sim.Rng.shuffle rng shuffled;
    Array.to_list (Array.sub shuffled 0 k)
  in
  let t2 =
    List.init tier2 (fun _ ->
        let id = fresh "tier2" in
        let provider_count = 1 + Tango_sim.Rng.int rng 3 in
        List.iter
          (fun p -> Topology.connect t ~provider:p ~customer:id ())
          (pick_distinct t1_arr provider_count);
        id)
  in
  (* Sparse tier-2 peering. *)
  let t2_arr = Array.of_list t2 in
  let n2 = Array.length t2_arr in
  if n2 >= 2 then
    for _ = 1 to n2 do
      let a = t2_arr.(Tango_sim.Rng.int rng n2) in
      let b = t2_arr.(Tango_sim.Rng.int rng n2) in
      if a <> b && Option.is_none (Topology.relationship t a b) then
        Topology.connect_peers t a b ()
    done;
  for _ = 1 to stubs do
    let id = fresh "stub" in
    let provider_count = 1 + Tango_sim.Rng.int rng 2 in
    let pool = if n2 > 0 then t2_arr else t1_arr in
    List.iter
      (fun p -> Topology.connect t ~provider:p ~customer:id ())
      (pick_distinct pool provider_count)
  done;
  t
