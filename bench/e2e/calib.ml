(* Host-speed calibration.

   The benchmark's host shares its cores with other tenants, and its
   speed drifts by itself by up to ±30% over tens of seconds to minutes
   (README "Noise"). Every workload slows together, so a run-to-run
   spread of the raw rates measures the neighbours, not the program.

   This file holds a fixed reference kernel that belongs to the
   benchmark, not to the library: a small discrete-event loop (a binary
   heap of closures over a ring of nodes, with a hash table of last
   visits), the same kind of work as the engine, relays and lanes do.
   Right after each timed job, the kernel runs for a quarter of the
   job's time; the job's numbers are then scaled by how fast the kernel
   ran against [reference_rate]. A change to the library moves only the
   job, so the scaled numbers still move with the program's speed, while
   the host's drift moves both and cancels. *)

let nodes = 4096
let sources = 1024
let hops = 30

(* One unit: [sources × (hops + 1)] events. *)
let unit_events = sources * (hops + 1)

let run_unit () =
  let ht = Array.make sources 0.0 and hf = Array.make sources ignore in
  let n = ref 0 in
  let push t f =
    let i = ref !n in
    incr n;
    while !i > 0 && ht.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      ht.(!i) <- ht.(p);
      hf.(!i) <- hf.(p);
      i := p
    done;
    ht.(!i) <- t;
    hf.(!i) <- f
  in
  let pop () =
    let t = ht.(0) and f = hf.(0) in
    decr n;
    let lt = ht.(!n) and lf = hf.(!n) in
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      if l >= !n then go := false
      else begin
        let c = if l + 1 < !n && ht.(l + 1) < ht.(l) then l + 1 else l in
        if ht.(c) < lt then begin
          ht.(!i) <- ht.(c);
          hf.(!i) <- hf.(c);
          i := c
        end
        else go := false
      end
    done;
    ht.(!i) <- lt;
    hf.(!i) <- lf;
    (t, f)
  in
  let now = ref 0.0 and count = ref 0 and seen = Hashtbl.create nodes in
  let rec hop node ttl () =
    incr count;
    Hashtbl.replace seen node (!count, !now);
    if ttl > 0 then
      push
        (!now +. 0.001 +. (float_of_int ((node * 7919) land 255) *. 1e-5))
        (hop (((node * 31) + ttl) land (nodes - 1)) (ttl - 1))
  in
  for i = 0 to sources - 1 do
    push (float_of_int i *. 1e-4) (hop i hops)
  done;
  while !n > 0 do
    let t, f = pop () in
    now := t;
    f ()
  done;
  ignore (Sys.opaque_identity seen);
  assert (!count = unit_events)

(* The kernel's rate, in events per second, on the reference host (the
   2-vCPU VM of README "Noise"), typical of its quiet and busy periods
   alike. It only sets the scale: a scaled value reads what the job
   would have read at this kernel rate. *)
let reference_rate = 4.0e6

(* Kernel events per second over at least [min_s] seconds, from a
   settled heap. *)
let rate ~min_s =
  Gc.full_major ();
  let t0 = Span.now_ns () in
  let rec go units =
    run_unit ();
    let elapsed = float_of_int (Span.now_ns () - t0) /. 1e9 in
    if elapsed >= min_s then float_of_int (units * unit_events) /. elapsed
    else go (units + 1)
  in
  go 1

(* The host-speed factor for a job whose timed part just took [job_s]
   seconds: [reference_rate] over the kernel's rate now. Multiply a rate
   by it, divide a time by it. *)
let factor ~job_s = reference_rate /. rate ~min_s:(Float.max 0.02 (job_s /. 4.0))
