module Rng = Tango_sim.Rng

(* Mesh topology in CSR form: PoPs are dense ids [0, pops), every
   directed edge is a "slot" and all per-edge state elsewhere in the
   library (liveness, hello timestamps) is a flat array indexed by
   slot. One process hosting hundreds of PoPs never chases a pointer
   per neighbor. *)
type t = {
  pops : int;
  region : int array;
  adj_off : int array; (* length pops+1: slot range of pop i *)
  adj_dst : int array; (* per slot: neighbor pop id, ascending per row *)
  adj_lat_ms : float array; (* per slot: one-way latency, symmetric *)
  adj_paths : int array; (* per slot: discovered per-pair segment paths *)
  rev : int array; (* per slot (u->v): the slot of (v->u) *)
}

(* Partition faults cut along the plane's four quadrants. *)
let regions = 4

let pops t = t.pops

let region t pop =
  if pop < 0 || pop >= t.pops then Err.invalid "Mtopo.region: pop %d" pop;
  t.region.(pop)

let edges t = Array.length t.adj_dst
let[@hot] slot_base t pop = t.adj_off.(pop)
let[@hot] degree t pop = t.adj_off.(pop + 1) - t.adj_off.(pop)
let[@hot] slot_dst t s = t.adj_dst.(s)
let[@hot] slot_lat_ms t s = t.adj_lat_ms.(s)
let[@hot] slot_paths t s = t.adj_paths.(s)
let[@hot] slot_rev t s = t.rev.(s)

(* Binary search within src's CSR row (rows are sorted by neighbor id):
   the forwarding path resolves "is [dst] my neighbor, and on which
   slot?" in O(log degree) with no allocation. *)
let[@hot] slot t ~src ~dst =
  let lo = ref t.adj_off.(src) and hi = ref (t.adj_off.(src + 1) - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.adj_dst.(mid) in
    if v = dst then begin
      found := mid;
      lo := !hi + 1
    end
    else if v < dst then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* Deterministic synthetic topology: PoPs scattered on a 60x60 ms-scale
   plane (latency ~ euclidean distance), a ring for guaranteed
   connectivity, plus per-PoP nearest-neighbor chords up to [degree].
   Every draw comes from one seeded Rng in a fixed order, so the graph
   is a pure function of (pops, degree, seed). *)
let generate ?(degree = 4) ~pops ~seed () =
  if pops < 2 then Err.invalid "Mtopo.generate: need at least 2 pops, got %d" pops;
  if pops > 4096 then Err.invalid "Mtopo.generate: %d pops exceeds 4096" pops;
  if degree < 2 then Err.invalid "Mtopo.generate: degree %d below 2" degree;
  let rng = Rng.create ~seed in
  let xs = Array.make pops 0.0 and ys = Array.make pops 0.0 in
  for i = 0 to pops - 1 do
    xs.(i) <- Rng.float rng 60.0;
    ys.(i) <- Rng.float rng 60.0
  done;
  (* Geographic quadrants are the region ids. *)
  let region =
    Array.init pops (fun i ->
        (if xs.(i) >= 30.0 then 1 else 0) + if ys.(i) >= 30.0 then 2 else 0)
  in
  let adj = Bytes.make (pops * pops) '\000' in
  let link i j =
    if i <> j then begin
      Bytes.set adj ((i * pops) + j) '\001';
      Bytes.set adj ((j * pops) + i) '\001'
    end
  in
  let linked i j = Bytes.get adj ((i * pops) + j) = '\001' in
  let node_degree i =
    let d = ref 0 in
    for j = 0 to pops - 1 do
      if linked i j then incr d
    done;
    !d
  in
  for i = 0 to pops - 1 do
    link i ((i + 1) mod pops)
  done;
  let d2 i j =
    let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
    (dx *. dx) +. (dy *. dy)
  in
  (* Chords: each PoP connects to its nearest non-neighbors until it
     reaches [degree]. Candidate order is (distance, id) with an
     explicit comparator — no polymorphic compare. *)
  let cand = Array.make pops 0 in
  for i = 0 to pops - 1 do
    let n = ref 0 in
    for j = 0 to pops - 1 do
      if j <> i && not (linked i j) then begin
        cand.(!n) <- j;
        incr n
      end
    done;
    let sub = Array.sub cand 0 !n in
    Array.sort
      (fun a b ->
        let c = Float.compare (d2 i a) (d2 i b) in
        if c <> 0 then c else Int.compare a b)
      sub;
    let k = ref 0 in
    while node_degree i < degree && !k < !n do
      link i sub.(!k);
      incr k
    done
  done;
  (* CSR assembly; rows are naturally sorted by neighbor id. *)
  let adj_off = Array.make (pops + 1) 0 in
  for i = 0 to pops - 1 do
    adj_off.(i + 1) <- adj_off.(i) + node_degree i
  done;
  let nslots = adj_off.(pops) in
  let adj_dst = Array.make nslots 0 in
  let adj_lat_ms = Array.make nslots 0.0 in
  let adj_paths = Array.make nslots 0 in
  let cursor = ref 0 in
  for i = 0 to pops - 1 do
    for j = 0 to pops - 1 do
      if linked i j then begin
        adj_dst.(!cursor) <- j;
        adj_lat_ms.(!cursor) <- 0.5 +. (sqrt (d2 i j) /. 4.0);
        (* Per-pair discovery diversity metadata: how many distinct
           provider paths the pair's discovery found for this segment
           (2-4, keyed symmetrically off the endpoint ids). *)
        let lo = min i j and hi = max i j in
        adj_paths.(!cursor) <- 2 + (((lo * 31) + hi) mod 3);
        incr cursor
      end
    done
  done;
  let t =
    {
      pops;
      region;
      adj_off;
      adj_dst;
      adj_lat_ms;
      adj_paths;
      rev = Array.make nslots (-1);
    }
  in
  for i = 0 to pops - 1 do
    for s = adj_off.(i) to adj_off.(i + 1) - 1 do
      t.rev.(s) <- slot t ~src:adj_dst.(s) ~dst:i
    done
  done;
  t
