(* Precomputed spanning arborescences (in-trees), k per destination, in
   the spirit of Chiesa-style circular arborescence routing: a relay
   whose next hop died does not recompute anything — it rotates to the
   next tree, an O(1) array probe.

   The generated topology always contains the id-ring, and a
   Hamiltonian cycle through the destination is a free st-numbering:
   [pi v = (v - dst) mod n] puts the destination first, its ring
   predecessor [t = dst - 1] last, and gives every other node both a
   lower and a higher neighbor. Two trees fall out:

   - the {e low} tree descends pi (each node parents its lowest-depth
     strictly-lower-pi neighbor) and reaches dst at pi = 0;
   - the {e high} tree ascends pi (lowest-depth strictly-higher-pi
     neighbor) to [t], which parents dst directly.

   Both are spanning in-trees (parent pointers strictly descend/ascend
   a total order), and their paths from any node v share only v and
   the destination — internally vertex-disjoint. That is the O(1)
   failover theorem: for a single dead relay K, a packet blocked on
   one tree at node w rotates to the other, whose path from w cannot
   contain K, and delivers. No funnel cell can strand a flow.

   Tree 0 (for k >= 3) is the plain BFS shortest-path tree — the
   stitching layer walks it — and trees beyond the first three are
   best-effort variants that rotate the parent choice among the
   lower/higher candidates. Every tree is acyclic on its own order, so
   any rotation interleaving is bounded by the segment hop budget. *)

type t = {
  topo : Mtopo.t;
  k : int;
  next : int array; (* ((dst*k)+tree)*pops + v -> parent pop, -1 at dst *)
  depth : int array; (* dst*pops + v -> BFS hops from v to dst *)
}

let k t = t.k
let pops t = Mtopo.pops t.topo
let[@hot] next_hop t ~dst ~tree ~pop = t.next.((((dst * t.k) + tree) * pops t) + pop)
let depth t ~dst ~pop = t.depth.((dst * pops t) + pop)

let distinct_parents t ~dst ~pop =
  let distinct = ref 0 in
  for tree = 0 to t.k - 1 do
    let p = next_hop t ~dst ~tree ~pop in
    let fresh = ref (p >= 0) in
    for earlier = 0 to tree - 1 do
      if next_hop t ~dst ~tree:earlier ~pop = p then fresh := false
    done;
    if !fresh then incr distinct
  done;
  !distinct

let build ?(k = 3) topo =
  if k < 1 then Err.invalid "Arbor.build: need at least one tree, got %d" k;
  if k > 255 then Err.invalid "Arbor.build: %d trees exceed the wire field" k;
  let n = Mtopo.pops topo in
  let next = Array.make (n * n * k) (-1) in
  let depth = Array.make (n * n) (-1) in
  let queue = Array.make n 0 in
  for dst = 0 to n - 1 do
    let base = dst * n in
    (* BFS depths from dst (the graph is symmetric, so forward
       adjacency doubles as the reverse graph). Neighbors enqueue in
       slot order: deterministic depths. The ring makes the topology
       connected, so every node gets one. *)
    depth.(base + dst) <- 0;
    queue.(0) <- dst;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = depth.(base + u) in
      for s = Mtopo.slot_base topo u to Mtopo.slot_base topo u + Mtopo.degree topo u - 1 do
        let v = Mtopo.slot_dst topo s in
        if depth.(base + v) < 0 then begin
          depth.(base + v) <- du + 1;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    let pi v = (v - dst + n) mod n in
    (* [rank 0]: lowest-depth lower-pi neighbor (ties to lowest pi) —
       the low tree's parent. [rank r]: the choice rotated r steps
       through the ordered lower-pi candidates, for best-effort extra
       trees. [higher = true] mirrors everything upward for the high
       tree; the pi = n-1 node parents dst directly. *)
    let pick v ~higher ~rank =
      if higher && pi v = n - 1 then dst
      else begin
        let vbase = Mtopo.slot_base topo v and deg = Mtopo.degree topo v in
        let count = ref 0 in
        for i = 0 to deg - 1 do
          let u = Mtopo.slot_dst topo (vbase + i) in
          if (if higher then pi u > pi v else pi u < pi v) then incr count
        done;
        (* [count] >= 1: the ring predecessor / successor is always
           there. Find the (rank mod count)-th candidate in (depth, pi)
           order without materializing the list: pi is unique per node,
           so [depth * n + pi] is a unique sort key. *)
        let want = rank mod !count in
        let chosen = ref (-1) and prev_key = ref (-1) in
        for _ = 0 to want do
          let best = ref (-1) and best_key = ref max_int in
          for i = 0 to deg - 1 do
            let u = Mtopo.slot_dst topo (vbase + i) in
            if (if higher then pi u > pi v else pi u < pi v) then begin
              let key = (depth.(base + u) * n) + pi u in
              if key > !prev_key && key < !best_key then begin
                best := u;
                best_key := key
              end
            end
          done;
          chosen := !best;
          prev_key := !best_key
        done;
        !chosen
      end
    in
    for v = 0 to n - 1 do
      if v <> dst then begin
        let dv = depth.(base + v) in
        (* Tree 0 for k >= 3: first strictly-closer neighbor in slot
           order — the BFS shortest-path tree the stitcher walks. For
           k <= 2 every tree slot goes to the low/high pair so the
           disjointness theorem still holds. *)
        for tree = 0 to k - 1 do
          let cell = ((((dst * k) + tree) * n) + v) in
          let role = if k >= 3 then tree else if k = 2 then tree + 1 else 0 in
          if role = 0 then begin
            let parent = ref (-1) in
            for s = Mtopo.slot_base topo v to
                    Mtopo.slot_base topo v + Mtopo.degree topo v - 1 do
              let u = Mtopo.slot_dst topo s in
              if !parent < 0 && depth.(base + u) < dv then parent := u
            done;
            next.(cell) <- !parent
          end
          else
            next.(cell) <-
              pick v ~higher:(role land 1 = 0) ~rank:((role - 1) / 2)
        done
      end
    done
  done;
  { topo; k; next; depth }

(* Average, over all (dst, v<>dst) pairs, of the fraction of parent
   diversity realized: distinct parents / min(k, degree). The E15
   "path diversity" column. *)
let diversity t =
  let n = pops t in
  let total = ref 0.0 and cells = ref 0 in
  for dst = 0 to n - 1 do
    for v = 0 to n - 1 do
      if v <> dst && t.depth.((dst * n) + v) > 0 then begin
        let possible = min t.k (Mtopo.degree t.topo v) in
        let distinct = distinct_parents t ~dst ~pop:v in
        total := !total +. (float_of_int distinct /. float_of_int possible);
        incr cells
      end
    done
  done;
  if !cells = 0 then 1.0 else !total /. float_of_int !cells
