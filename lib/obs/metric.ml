(* Process-wide metric registry: named counters, gauges and
   log-bucketed histograms, all backed by flat int/float arrays so the
   record paths ([incr]/[add]/[set]/[observe]) are O(1) and
   allocation-free — they can run inside [@hot] bodies of the packet
   fast path. Registration is the cold path (module-init time) and may
   allocate freely.

   Recording is gated on one process-wide switch, default off: an
   uninstrumented run executes a load + branch per call site and leaves
   every experiment output untouched. `--metrics` flips the switch. *)

type kind = Counter | Gauge | Histogram

(* Handles are plain indices into the per-kind flat value stores. *)
type counter = int

type gauge = int

type histogram = int

type hist_layout = {
  (* Bucket i (0 <= i < bucket_count) covers values <= 2^(lo_exp + i),
     each lower-bounded by the previous bucket; index [bucket_count] is
     the overflow (+inf) bucket. *)
  lo_exp : int;
  bucket_count : int;
  base : int;  (* offset of bucket 0 in [hist_counts] *)
}

type registration = { name : string; help : string; kind : kind; index : int }

type state = {
  mutable on : bool;
  mutable registrations : registration list;  (* newest first *)
  mutable counters : int array;
  mutable counter_count : int;
  mutable gauges : floatarray;
  mutable gauge_count : int;
  mutable hists : hist_layout array;
  mutable hist_count : int;
  mutable hist_counts : int array;  (* all histograms' buckets, packed *)
  mutable hist_used : int;  (* words of [hist_counts] in use *)
  mutable hist_sums : floatarray;
  mutable hist_totals : int array;  (* observation count per histogram *)
}

let state =
  {
    on = false;
    registrations = [];
    counters = Array.make 16 0;
    counter_count = 0;
    gauges = Float.Array.make 16 0.0;
    gauge_count = 0;
    hists = [||];
    hist_count = 0;
    hist_counts = Array.make 64 0;
    hist_used = 0;
    hist_sums = Float.Array.make 8 0.0;
    hist_totals = Array.make 8 0;
  }

let enabled () = state.on

let set_enabled on = state.on <- on

(* ------------------------------------------------------------------ *)
(* Registration (cold path)                                            *)

let registered name =
  List.find_opt (fun r -> String.equal r.name name) state.registrations

let check_name caller name kind =
  if String.length name = 0 then
    invalid_arg (Printf.sprintf "Metric.%s: empty metric name" caller);
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | c ->
          invalid_arg
            (Printf.sprintf "Metric.%s: invalid character %C in name %S" caller
               c name))
    name;
  match registered name with
  | Some r when r.kind <> kind ->
      invalid_arg
        (Printf.sprintf "Metric.%s: %S is already registered as another kind"
           caller name)
  | other -> other

let register name help kind index =
  state.registrations <- { name; help; kind; index } :: state.registrations

let grow_ints a = Array.append a (Array.make (max 16 (Array.length a)) 0)

let grow_floats a =
  let n = Float.Array.length a in
  let b = Float.Array.make (2 * max 8 n) 0.0 in
  Float.Array.blit a 0 b 0 n;
  b

let counter ?(help = "") name =
  match check_name "counter" name Counter with
  | Some r -> r.index
  | None ->
      let index = state.counter_count in
      if index >= Array.length state.counters then
        state.counters <- grow_ints state.counters;
      state.counter_count <- index + 1;
      register name help Counter index;
      index

let gauge ?(help = "") name =
  match check_name "gauge" name Gauge with
  | Some r -> r.index
  | None ->
      let index = state.gauge_count in
      if index >= Float.Array.length state.gauges then
        state.gauges <- grow_floats state.gauges;
      state.gauge_count <- index + 1;
      register name help Gauge index;
      index

let max_buckets = 64

let histogram ?(help = "") ?(lo_exp = -20) ?(buckets = 24) name =
  if buckets < 1 || buckets > max_buckets then
    invalid_arg
      (Printf.sprintf "Metric.histogram: bucket count %d outside [1, %d]"
         buckets max_buckets);
  match check_name "histogram" name Histogram with
  | Some r ->
      let l = state.hists.(r.index) in
      if l.lo_exp <> lo_exp || l.bucket_count <> buckets then
        invalid_arg
          (Printf.sprintf
             "Metric.histogram: %S re-registered with a different layout" name);
      r.index
  | None ->
      let index = state.hist_count in
      let base = state.hist_used in
      let words = buckets + 1 (* overflow bucket *) in
      if base + words > Array.length state.hist_counts then
        state.hist_counts <-
          Array.append state.hist_counts
            (Array.make (max words (Array.length state.hist_counts)) 0);
      state.hist_used <- base + words;
      if index >= Array.length state.hists then begin
        let grown =
          Array.make (2 * max 4 (Array.length state.hists))
            { lo_exp = 0; bucket_count = 0; base = 0 }
        in
        Array.blit state.hists 0 grown 0 index;
        state.hists <- grown
      end;
      state.hists.(index) <- { lo_exp; bucket_count = buckets; base };
      if index >= Array.length state.hist_totals then
        state.hist_totals <- grow_ints state.hist_totals;
      if index >= Float.Array.length state.hist_sums then
        state.hist_sums <- grow_floats state.hist_sums;
      state.hist_count <- index + 1;
      register name help Histogram index;
      index

(* ------------------------------------------------------------------ *)
(* Recording (hot path)                                                *)

let[@hot] incr c = if state.on then state.counters.(c) <- state.counters.(c) + 1

let[@hot] add c n = if state.on then state.counters.(c) <- state.counters.(c) + n

let[@hot] set g v = if state.on then Float.Array.set state.gauges g v

(* Ratio gauges (hit rates, occupancy fractions) share a guard so every
   publisher doesn't reinvent the zero-denominator case. *)
let[@hot] set_ratio g ~num ~den =
  if state.on then
    Float.Array.set state.gauges g
      (if den = 0 then 0.0 else float_of_int num /. float_of_int den)

(* ceil(log2 v) straight from the IEEE-754 exponent field: O(1), no
   lookup over the bucket bounds, and the Int64 intermediates stay
   unboxed in native code. Subnormals and non-positive values clamp to
   the lowest bucket; nan/inf land in the overflow bucket. *)
let[@hot] ceil_log2 v =
  if v <= 0.0 then min_int
  else begin
    let bits = Int64.bits_of_float v in
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
    if biased = 0x7FF then max_int (* inf: clamp past every finite bucket *)
    else begin
      let mantissa = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
      (* 2^e exactly (mantissa zero) rounds to e, anything above to e+1. *)
      (biased - 1023) + (if mantissa = 0 && biased <> 0 then 0 else 1)
    end
  end

let[@hot] bucket_index lo_exp bucket_count v =
  if Float.is_nan v then bucket_count
  else begin
    let e = ceil_log2 v in
    (* Compare before subtracting: [e] is [max_int] for inf, and
       [e - lo_exp] would wrap. [lo_exp + bucket_count] is small. *)
    if e <= lo_exp then 0
    else if e >= lo_exp + bucket_count then bucket_count
    else e - lo_exp
  end

let[@hot] observe h v =
  if state.on then begin
    let layout = state.hists.(h) in
    let i = bucket_index layout.lo_exp layout.bucket_count v in
    state.hist_counts.(layout.base + i) <- state.hist_counts.(layout.base + i) + 1;
    state.hist_totals.(h) <- state.hist_totals.(h) + 1;
    if not (Float.is_nan v) then
      Float.Array.set state.hist_sums h (Float.Array.get state.hist_sums h +. v)
  end

(* ------------------------------------------------------------------ *)
(* Read side (cold path)                                               *)

let counter_value c = state.counters.(c)

let gauge_value g = Float.Array.get state.gauges g

type view = {
  name : string;
  help : string;
  value : value;
}

and value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of {
      upper_bounds : float array;  (* finite bounds; overflow is implicit *)
      counts : int array;  (* bucket_count + 1 entries, overflow last *)
      sum : float;
      count : int;
    }

let view_of_registration r =
  let value =
    match r.kind with
    | Counter -> Counter_value state.counters.(r.index)
    | Gauge -> Gauge_value (Float.Array.get state.gauges r.index)
    | Histogram ->
        let layout = state.hists.(r.index) in
        Histogram_value
          {
            upper_bounds =
              Array.init layout.bucket_count (fun i ->
                  Float.ldexp 1.0 (layout.lo_exp + i));
            counts =
              Array.init (layout.bucket_count + 1) (fun i ->
                  state.hist_counts.(layout.base + i));
            sum = Float.Array.get state.hist_sums r.index;
            count = state.hist_totals.(r.index);
          }
  in
  { name = r.name; help = r.help; value }

let views () =
  List.rev_map view_of_registration state.registrations
  |> List.sort (fun a b -> String.compare a.name b.name)

(* Zero every value, keeping all registrations: a fresh run in the same
   process starts its aggregation from a clean slate. *)
let reset_values () =
  Array.fill state.counters 0 (Array.length state.counters) 0;
  Float.Array.fill state.gauges 0 (Float.Array.length state.gauges) 0.0;
  Array.fill state.hist_counts 0 (Array.length state.hist_counts) 0;
  Array.fill state.hist_totals 0 (Array.length state.hist_totals) 0;
  Float.Array.fill state.hist_sums 0 (Float.Array.length state.hist_sums) 0.0
