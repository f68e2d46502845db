(* Fixed-capacity ring buffer of packed event records: virtual time, an
   event-kind tag and two integer payloads, striped across four flat
   arrays so recording writes four slots and never allocates. When the
   ring is full the newest event overwrites the oldest and the drop
   counter advances — a bounded-memory flight recorder, not a log.

   Kinds are small dense ints minted by [kind] at module-init time;
   the name table exists only for export. Recording shares the
   process-wide switch in [Metric]. *)

type t = {
  capacity : int;
  times : floatarray;
  kinds : int array;
  payload_a : int array;
  payload_b : int array;
  mutable next : int;  (* slot the next record lands in *)
  mutable length : int;  (* live records, <= capacity *)
  mutable dropped : int;  (* records overwritten after wraparound *)
}

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    times = Float.Array.make capacity 0.0;
    kinds = Array.make capacity 0;
    payload_a = Array.make capacity 0;
    payload_b = Array.make capacity 0;
    next = 0;
    length = 0;
    dropped = 0;
  }

(* ------------------------------------------------------------------ *)
(* Kind registry (cold path)                                           *)

(* Flat tag-indexed name table, doubled on demand: [kind] is cold
   (module-init) but the lookup side stays O(1) either way. *)
let kind_names = ref (Array.make 8 "")

let kind_count = ref 0

let kind name =
  if String.length name = 0 then invalid_arg "Trace.kind: empty kind name";
  let names = !kind_names in
  let tag = ref (-1) in
  for i = 0 to !kind_count - 1 do
    if String.equal names.(i) name then tag := i
  done;
  if !tag >= 0 then !tag
  else begin
    if !kind_count >= Array.length !kind_names then begin
      let grown = Array.make (2 * Array.length !kind_names) "" in
      Array.blit !kind_names 0 grown 0 !kind_count;
      kind_names := grown
    end;
    let t = !kind_count in
    !kind_names.(t) <- name;
    kind_count := t + 1;
    t
  end

let kind_name tag =
  if tag < 0 || tag >= !kind_count then
    invalid_arg (Printf.sprintf "Trace.kind_name: unknown kind tag %d" tag)
  else !kind_names.(tag)

(* ------------------------------------------------------------------ *)
(* Recording (hot path)                                                *)

let[@hot] record t ~now ~kind:k a b =
  if Metric.enabled () then begin
    let slot = t.next in
    Float.Array.set t.times slot now;
    t.kinds.(slot) <- k;
    t.payload_a.(slot) <- a;
    t.payload_b.(slot) <- b;
    t.next <- (if slot + 1 >= t.capacity then 0 else slot + 1);
    if t.length < t.capacity then t.length <- t.length + 1
    else t.dropped <- t.dropped + 1
  end

(* ------------------------------------------------------------------ *)
(* Read side (cold path)                                               *)

let dropped t = t.dropped

let recorded t = t.length + t.dropped

let iter t f =
  (* Oldest record first: when wrapped, the oldest lives at [next]. *)
  let start = if t.length < t.capacity then 0 else t.next in
  for i = 0 to t.length - 1 do
    let slot = (start + i) mod t.capacity in
    f ~time:(Float.Array.get t.times slot) ~kind:t.kinds.(slot)
      ~a:t.payload_a.(slot) ~b:t.payload_b.(slot)
  done

let clear t =
  t.next <- 0;
  t.length <- 0;
  t.dropped <- 0

(* The process-wide flight recorder the instrumented subsystems write
   into; exporters snapshot it alongside the metric registry. *)
let default = create ()
