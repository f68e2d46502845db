type rule =
  | Hot_alloc
  | No_mutex_hot
  | Hot_reach
  | Domsafe_mutation
  | Domsafe_blocking
  | Domain_self
  | Wallclock
  | Unseeded_random
  | Iter_order
  | Poly_compare
  | Float_equal
  | No_failwith
  | Missing_mli
  | Dead_export
  | Waiver
  | Parse_error

let all =
  [
    Hot_alloc;
    No_mutex_hot;
    Hot_reach;
    Domsafe_mutation;
    Domsafe_blocking;
    Domain_self;
    Wallclock;
    Unseeded_random;
    Iter_order;
    Poly_compare;
    Float_equal;
    No_failwith;
    Missing_mli;
    Dead_export;
    Waiver;
    Parse_error;
  ]

let id = function
  | Hot_alloc -> "hot-alloc"
  | No_mutex_hot -> "no-mutex-in-hot"
  | Hot_reach -> "hot-reach"
  | Domsafe_mutation -> "domsafe-mutation"
  | Domsafe_blocking -> "domsafe-blocking"
  | Domain_self -> "domsafe-domain-self"
  | Wallclock -> "determinism-wallclock"
  | Unseeded_random -> "determinism-random"
  | Iter_order -> "determinism-iteration"
  | Poly_compare -> "poly-compare"
  | Float_equal -> "float-equal"
  | No_failwith -> "no-failwith"
  | Missing_mli -> "missing-mli"
  | Dead_export -> "dead-export"
  | Waiver -> "waiver"
  | Parse_error -> "parse-error"

let of_id s = List.find_opt (fun r -> String.equal (id r) s) all

let describe = function
  | Hot_alloc ->
      "no allocation (closures, tuples, lists, records, arrays), Printf/Format, \
       Queue or tuple-keyed Hashtbl use inside [@hot] functions of designated \
       hot-path modules"
  | No_mutex_hot ->
      "no Mutex, Condition or Semaphore use and no blocking Domain operations \
       (spawn, join) inside [@hot] functions of designated hot-path modules — \
       the multicore packet path is lock-free; Domain.cpu_relax is allowed"
  | Hot_reach ->
      "the hot-alloc and no-mutex disciplines apply to every function \
       transitively reachable from a [@hot] body, not just the annotated \
       entry points; violations report the full call chain from the hot root"
  | Domsafe_mutation ->
      "a record type carrying an Atomic.t field is lane-shared; writing its \
       plain mutable fields directly bypasses the sanctioned ring-publication \
       pattern (plain array/field writes made visible by an Atomic cursor \
       store) and races across domains"
  | Domsafe_blocking ->
      "no Mutex, Condition or Semaphore anywhere in the lane-visible modules \
       of the multicore dataplane — blocking a lane stalls its domain and, \
       through the stop-the-world rendezvous, every other lane"
  | Domain_self ->
      "no Domain.self-dependent control flow in lane-visible modules: lane \
       behaviour must be a function of the lane id and the seed, never of \
       which domain the scheduler picked"
  | Wallclock ->
      "no wall-clock reads (Unix.gettimeofday, Unix.time, Sys.time) outside \
       lib/obs manifest code: seeded runs must be byte-reproducible, and wall \
       time is the classic leak"
  | Unseeded_random ->
      "no global Random state (Random.int, Random.self_init, ...): all \
       randomness flows from an explicit seed through Sim.Rng or \
       Random.State, or seeded runs stop being reproducible"
  | Iter_order ->
      "no Hashtbl.iter / Hashtbl.fold feeding a merge, reduction or exported \
       output: iteration order is an implementation detail; collect and sort \
       (Hashtbl.fold ... |> List.sort ...) instead"
  | Poly_compare ->
      "no polymorphic =, <>, compare, min, max or Hashtbl.hash on structured \
       (non-immediate) operands; use monomorphic comparators"
  | Float_equal -> "no = / <> / compare on float operands: NaN makes them a hazard"
  | No_failwith ->
      "no failwith / invalid_arg / raise Invalid_argument / raise Failure in \
       per-packet libraries (lib/net, lib/dataplane); declare the exception"
  | Missing_mli -> "every lib/**/*.ml must have a matching .mli interface"
  | Dead_export ->
      "every val in a lib/**/*.mli must be referenced by some program outside its \
       own module (a .ml in lib/, bin/, bench/ or examples/); a val only a test \
       needs carries a test-hook marker naming a test file that references it; \
       otherwise delete it or waive it with a reason"
  | Waiver -> "waiver comments must name a known rule and carry a reason"
  | Parse_error -> "the file must parse"

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
  chain : string list;
      (* call chain from a [@hot] root for interprocedural findings;
         [] for local findings *)
}

let v ~file ~line ~col rule message =
  { file; line; col; rule; message; chain = [] }

let finding_compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (id a.rule) (id b.rule)
