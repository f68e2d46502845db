module Fnv = Tango_net.Fnv

(* Verifiable forwarding: the forwarding-commitments idea (arXiv
   2309.13271) scaled down to the mesh's trust model. Every forwarding
   relay folds (hop id, tree id, post-decrement TTL) into a running
   FNV-1a chain carried in the segment header's attest field; the
   receiving PoP recomputes the chain it committed to at stitch time
   and classifies any mismatch.

   The chain is evidence, not cryptography — FNV-1a is trivially
   forgeable by an adversary that knows the scheme. What it buys at
   zero per-packet allocation is exactly what the experiments need:
   deterministic detection of every modeled misbehavior (silent
   detours, evidence suppression, underlay shortcuts, replays) and a
   localization story good enough to feed the quarantine machinery.
   DESIGN.md §15 spells out the threat model and the MAC upgrade path.

   Verdict classification, given the committed route of [n] forwarding
   relays (src plus the intermediates):

   - Replayed:   (flow, seq) already delivered — checked first, so a
                 byte-perfect copy of an honest frame is still caught.
   - Verified:   chain equals the committed fold.
   - Truncated:  the chain matches a proper prefix of the committed
                 fold, or the TTL shows fewer physical hops than the
                 route has — some relay short-cut the tail (e.g. an
                 underlay default-route tunnel past the overlay).
   - Wrong_path: the TTL shows extra physical hops — the packet
                 demonstrably transited PoPs not on the route.
   - Forged:     same-length route but a chain no honest fold explains
                 (garbled evidence field, suppressed fold).

   Localization: a Truncated chain names its last honest folder
   directly (the prefix length). A Wrong_path chain is searched for a
   single inserted hop — O(n^2 * pops) fold steps, mismatch path only.
   Replayed/Forged verdicts carry no position evidence; those fall
   back to suspicion scoring over the route's intermediates, where
   only repeat offenders cross the quarantine threshold. *)

type verdict = Verified | Wrong_path | Truncated | Replayed | Forged

let verdict_code = function
  | Verified -> 0
  | Wrong_path -> 1
  | Truncated -> 2
  | Replayed -> 3
  | Forged -> 4

(* Route slots per flow: src plus at most [max_segments - 1]
   intermediates. *)
let route_cap = Segment.max_segments

type t = {
  pops : int;
  flows : int;
  suspect_threshold : int;
  route_len : int array; (* forwarding relays committed; 0 = no commitment *)
  route_hops : int array; (* flow-major [route_cap] slots: src, intermediates *)
  seen : Bytes.t array; (* per flow: delivered-seq bitset, grown on demand *)
  suspicion : int array; (* per pop: unlocalized bad verdicts on its routes *)
  mutable last_culprit : int; (* localization result of the last [judge] *)
}

let create ?(suspect_threshold = 4) ~pops ~flows () =
  if pops < 1 then Err.invalid "Attest.create: need at least one pop";
  if flows < 1 then Err.invalid "Attest.create: need at least one flow";
  if suspect_threshold < 1 then
    Err.invalid "Attest.create: suspect threshold %d not positive"
      suspect_threshold;
  {
    pops;
    flows;
    suspect_threshold;
    route_len = Array.make flows 0;
    route_hops = Array.make (flows * route_cap) 0;
    seen = Array.init flows (fun _ -> Bytes.make 64 '\000');
    suspicion = Array.make pops 0;
    last_culprit = -1;
  }

let suspect_threshold t = t.suspect_threshold

(* The receiving PoP learns the committed route out of band at stitch
   time — the control-plane commitment exchange of the paper. [hops] is
   the stitched entry array ([count] entries, destination last); the
   forwarding relays are the source plus [hops.(0 .. count - 2)]. Only
   fully-stitched routes commit: a route that overflows the stack falls
   back to arborescence steering mid-way and its frames arrive excused
   (arbor-flagged), never judged. *)
let commit t ~flow ~src ~hops ~count =
  if flow < 0 || flow >= t.flows then Err.invalid "Attest.commit: flow %d" flow;
  if count < 1 || count > route_cap then
    Err.invalid "Attest.commit: %d entries outside [1,%d]" count route_cap;
  let base = flow * route_cap in
  t.route_hops.(base) <- src;
  for i = 0 to count - 2 do
    t.route_hops.(base + 1 + i) <- hops.(i)
  done;
  t.route_len.(flow) <- count

let route_len t ~flow = t.route_len.(flow)

let route_hop t ~flow ~i = t.route_hops.((flow * route_cap) + i)

(* ------------------------------------------------------------------ *)
(* Chain construction (hot: once per forwarded packet).                 *)

let[@hot] chain_seed ~flow ~seq ~src ~dst =
  let h = Fnv.mix Fnv.digest_seed flow in
  let h = Fnv.mix h seq in
  Fnv.mix h ((src lsl 16) lor dst)

let[@hot] fold_hop d ~hop ~tree ~ttl =
  Fnv.mix d ((hop lsl 16) lor ((tree land 0xFF) lsl 8) lor (ttl land 0xFF))

(* Expected chain over the first [upto] committed folds: relay [i]
   folds with post-decrement TTL [254 - i] (the sender stamps 255 and
   every forward decrements before folding). *)
let[@hot] expected_prefix t st ~upto =
  let base = st.Segment.flow * route_cap in
  let d =
    ref
      (chain_seed ~flow:st.Segment.flow ~seq:st.Segment.seq ~src:st.Segment.src
         ~dst:st.Segment.dst)
  in
  for i = 0 to upto - 1 do
    d :=
      fold_hop !d
        ~hop:(Array.unsafe_get t.route_hops (base + i))
        ~tree:st.Segment.tree ~ttl:(254 - i)
  done;
  !d

(* The pure chain check the bench row measures: recompute the full
   committed fold and compare — the dominant per-packet verify cost. *)
let[@hot] check t st = st.Segment.digest = expected_prefix t st ~upto:t.route_len.(st.Segment.flow)

(* ------------------------------------------------------------------ *)
(* Replay tracking: per-flow delivered-seq bitsets.                     *)

let[@hot] seen_test_and_set t ~flow ~seq =
  let cur = Array.unsafe_get t.seen flow in
  let byte = seq lsr 3 in
  let cur =
    if byte >= Bytes.length cur then begin
      (* Double until the bit fits; Bytes.create + blit is the same
         amortized-growth idiom as Rolling's rings. *)
      let n = ref (Bytes.length cur) in
      while byte >= !n do
        n := !n * 2
      done;
      let grown = Bytes.make !n '\000' in
      Bytes.blit cur 0 grown 0 (Bytes.length cur);
      t.seen.(flow) <- grown;
      grown
    end
    else cur
  in
  let bit = 1 lsl (seq land 7) in
  let old = Bytes.get_uint8 cur byte in
  Bytes.set_uint8 cur byte (old lor bit);
  old land bit <> 0

(* ------------------------------------------------------------------ *)
(* Verification (hot: once per delivered packet).                       *)

(* Replay-tracking window: a seq past this bound cannot be an honest
   frame of any simulated flow (horizons give a few hundred seqs per
   flow), and admitting it would let a forged header force the bitset
   to grow by gigabytes. Out-of-window evidence is Forged, not grown. *)
let max_seq = (1 lsl 24) - 1

let[@hot] verify t st =
  let flow = st.Segment.flow in
  if flow < 0 || flow >= t.flows || st.Segment.seq < 0 || st.Segment.seq > max_seq
  then Forged
  else if seen_test_and_set t ~flow ~seq:st.Segment.seq then Replayed
  else begin
    let n = Array.unsafe_get t.route_len flow in
    if n = 0 then Verified
    else if check t st then Verified
    else begin
      (* Physical hops actually taken, per the TTL the relays burned. *)
      let taken = 255 - st.Segment.hop_budget in
      if taken < n then Truncated
      else if taken > n then Wrong_path
      else begin
        (* Same length: either a stripped chain (a relay short-cut and
           the chain matches a committed prefix) or evidence no honest
           fold explains. *)
        let d =
          ref
            (chain_seed ~flow ~seq:st.Segment.seq ~src:st.Segment.src
               ~dst:st.Segment.dst)
        in
        let hit = ref false in
        let base = flow * route_cap in
        for i = 0 to n - 2 do
          d :=
            fold_hop !d
              ~hop:(Array.unsafe_get t.route_hops (base + i))
              ~tree:st.Segment.tree ~ttl:(254 - i);
          if !d = st.Segment.digest then hit := true
        done;
        if !hit then Truncated else Forged
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Localization and suspicion (cold: mismatch path only).               *)

(* Blame a Truncated chain's last honest folder: the longest committed
   prefix the received digest matches ([k = 1] blames the source — a
   Byzantine source can short-cut its own route). -1 when no prefix
   matches. *)
let locate_truncated t st =
  let n = t.route_len.(st.Segment.flow) in
  let culprit = ref (-1) in
  for k = 1 to n - 1 do
    if st.Segment.digest = expected_prefix t st ~upto:k then
      culprit := route_hop t ~flow:st.Segment.flow ~i:(k - 1)
  done;
  !culprit

(* Blame a Wrong_path chain by searching for a single inserted hop:
   find (j, x) such that the committed fold with (x, ttl) inserted
   before fold [j] — and every later TTL shifted by the extra physical
   hop — reproduces the received digest. The relay that admitted the
   detour is committed fold [j] ([j = 0] blames the source itself: the
   insertion precedes every honest fold). [x] skips the blamed relay
   itself: "route hop [j] detoured through itself" folds hop [j] twice
   at consecutive TTLs, which is also how an honest fold of hop [j]
   preceded by a real detour through it at position [j + 1] reads — a
   physically impossible reading that would out-race the true match in
   ascending search order. O(n^2 * pops) fold steps, mismatch path
   only. *)
let locate_detour t st =
  let flow = st.Segment.flow in
  let n = t.route_len.(flow) in
  let base = flow * route_cap in
  let found = ref (-1) in
  let j = ref 0 in
  while !found < 0 && !j < n do
    let prefix = expected_prefix t st ~upto:!j in
    let blamed = t.route_hops.(base + !j) in
    let x = ref 0 in
    while !found < 0 && !x < t.pops do
      if !x <> blamed then begin
        let d = ref (fold_hop prefix ~hop:!x ~tree:st.Segment.tree ~ttl:(254 - !j)) in
        for i = !j to n - 1 do
          d := fold_hop !d ~hop:t.route_hops.(base + i) ~tree:st.Segment.tree ~ttl:(253 - i)
        done;
        if !d = st.Segment.digest then found := blamed
      end;
      incr x
    done;
    incr j
  done;
  !found

(* Unlocalizable verdicts (Replayed, Forged) bump suspicion for every
   intermediate on the evidence path. Deliberately, a clean delivery
   does NOT exonerate: a replaying relay's original traffic still
   verifies, so any verified-resets-suspicion rule would let it clear
   itself forever. The cost is over-approximation — a persistent
   offender drags its route co-intermediates over the threshold with
   it — which is why quarantine is reversible with backoff rather than
   permanent, and why {!reset_suspicion} zeroes the count at
   quarantine time (readmitted pops re-offend from scratch). *)
let accuse t ~flow =
  let n = t.route_len.(flow) in
  for i = 1 to n - 1 do
    let p = route_hop t ~flow ~i in
    t.suspicion.(p) <- t.suspicion.(p) + 1
  done

let suspicion t ~pop = t.suspicion.(pop)

(* Quarantining a pop consumes its accumulated suspicion: after
   readmission it must re-offend from zero before being re-quarantined
   on circumstantial evidence alone. *)
let reset_suspicion t ~pop = t.suspicion.(pop) <- 0

(* One-stop classification for the delivery path: verdict plus, for a
   bad one, the localized culprit in [last_culprit] (-1 when the
   evidence does not name one). *)
let judge t st =
  let v = verify t st in
  (match v with
  | Verified -> t.last_culprit <- -1
  | Truncated ->
      t.last_culprit <- locate_truncated t st;
      if t.last_culprit < 0 then accuse t ~flow:st.Segment.flow
  | Wrong_path ->
      t.last_culprit <- locate_detour t st;
      if t.last_culprit < 0 then accuse t ~flow:st.Segment.flow
  | Replayed | Forged ->
      t.last_culprit <- -1;
      (* Forged can also mean an out-of-range flow or seq (a header no
         honest source produced); there is no committed route to
         accuse then. *)
      let flow = st.Segment.flow in
      if flow >= 0 && flow < t.flows then accuse t ~flow);
  v

let last_culprit t = t.last_culprit
