(* Tests for the simulation substrate: RNG, engine, statistics. *)

open Tango_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Rng.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:8 in
  let stats = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add stats (Rng.gaussian rng ~mean:5.0 ~std:2.0)
  done;
  let r = Stats.summarize stats in
  Alcotest.(check bool) "mean close" true (abs_float (r.Stats.mean -. 5.0) < 0.1);
  Alcotest.(check bool) "std close" true (abs_float (r.Stats.stddev -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:9 in
  let stats = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add stats (Rng.exponential rng ~rate:4.0)
  done;
  Alcotest.(check bool) "mean ~ 1/rate" true
    (abs_float ((Stats.summarize stats).Stats.mean -. 0.25) < 0.02)

let test_rng_invalid_params () =
  let rng = Rng.create ~seed:99 in
  Alcotest.(check bool) "exponential rate 0" true
    (try ignore (Rng.exponential rng ~rate:0.0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "pareto bad shape" true
    (try ignore (Rng.pareto rng ~scale:1.0 ~shape:0.0); false with Invalid_argument _ -> true)

let test_rng_pareto_scale () =
  let rng = Rng.create ~seed:10 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) ">= scale" true (Rng.pareto rng ~scale:3.0 ~shape:2.0 >= 3.0)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_gaussian_alloc () =
  (* Per draw, only the boxed result may be allocated. *)
  let rng = Rng.create ~seed:13 in
  let sink = Array.make 1 0.0 in
  let ops = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to ops do
    sink.(0) <- Rng.gaussian rng ~mean:0.0 ~std:1.0
  done;
  let words = Gc.minor_words () -. before in
  (* 16 words of slack cover the two Gc.minor_words readings. *)
  if words > float_of_int ((2 * ops) + 16) then
    Alcotest.failf "%.3f minor words per gaussian, want <= 2" (words /. float_of_int ops)

(* Literal outputs of the SplitMix64 generator for edge-case seeds: the
   first two raw words, then one gaussian, exponential, pareto (as IEEE
   bit patterns) and bounded int, in that order. *)
let test_rng_pinned () =
  let pinned =
    [
      (0, -2152535657050944081L, 7960286522194355700L, 4613151052473811445L,
       4607725217051776631L, 4612893429231594737L, 728);
      (-1, -1956407806741107680L, -1612297016619662647L, -4613677458455483443L,
       4595450512450844217L, 4607967234691747891L, 241);
      (min_int, 673586283495342769L, 9179367983060501462L, -4624267135496642347L,
       4599510456387651683L, 4608618599361184692L, 993);
      (max_int, 4890637089070741670L, 1157452369933151741L, -4625456253121933057L,
       4594987341662199735L, 4607703649007651393L, 343);
      (42, -4767286540954276203L, 2949826092126892291L, -4617163420470797700L,
       4610040798371341594L, 4607745204916757893L, 231);
    ]
  in
  List.iter
    (fun (seed, b1, b2, g, e, p, i) ->
      let t = Rng.create ~seed in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check int64) (name "bits64 #1") b1 (Rng.bits64 t);
      Alcotest.(check int64) (name "bits64 #2") b2 (Rng.bits64 t);
      Alcotest.(check int64) (name "gaussian") g
        (Int64.bits_of_float (Rng.gaussian t ~mean:0.0 ~std:1.0));
      Alcotest.(check int64) (name "exponential") e
        (Int64.bits_of_float (Rng.exponential t ~rate:2.0));
      Alcotest.(check int64) (name "pareto") p
        (Int64.bits_of_float (Rng.pareto t ~scale:1.0 ~shape:1.2));
      Alcotest.(check int) (name "int") i (Rng.int t 1000))
    pinned

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_time_advance () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:2.0 (fun e -> fired := ("b", Engine.now e) :: !fired);
  Engine.schedule e ~delay:1.0 (fun e -> fired := ("a", Engine.now e) :: !fired);
  Engine.run e;
  check_float "final clock" 2.0 (Engine.now e);
  Alcotest.(check (list (pair string (float 1e-9))))
    "ordered firing"
    [ ("a", 1.0); ("b", 2.0) ]
    (List.rev !fired)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun _ -> order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO for ties" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:1.0 (fun e ->
      log := Engine.now e :: !log;
      Engine.schedule e ~delay:0.5 (fun e -> log := Engine.now e :: !log));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested fires" [ 1.0; 1.5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.schedule e ~delay:1.0 (fun _ -> incr count);
  Engine.schedule e ~delay:5.0 (fun _ -> incr count);
  Engine.run ~until:2.0 e;
  Alcotest.(check int) "only early event" 1 !count;
  check_float "clock stops at until" 2.0 (Engine.now e);
  Alcotest.(check int) "late event still queued" 1 (Engine.pending e)

let test_engine_every () =
  let e = Engine.create () in
  let ticks = ref [] in
  Engine.every e ~interval:1.0 ~until:3.5 (fun e -> ticks := Engine.now e :: !ticks);
  Engine.run e;
  Alcotest.(check (list (float 1e-9)))
    "periodic ticks" [ 0.0; 1.0; 2.0; 3.0 ] (List.rev !ticks)

let test_engine_max_events () =
  let e = Engine.create () in
  let rec loop engine = Engine.schedule engine ~delay:1.0 loop in
  Engine.schedule e ~delay:1.0 loop;
  Engine.run ~max_events:10 e;
  Alcotest.(check bool) "bounded" true (Engine.now e <= 11.0)

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) (fun _ -> ()))

let test_engine_schedule_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun e ->
      try
        Engine.schedule_at e ~time:0.5 (fun _ -> ());
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ());
  Engine.run e

let test_engine_rejects_nan () =
  (* At 0.5 s a callback asks for a NaN delay while events wait at 1 s
     and 2 s. Accepted, it would fire first with [now] = NaN, and the
     clock would then jump back to 1. *)
  let e = Engine.create () in
  let fired = ref [] in
  let log e = fired := Engine.now e :: !fired in
  Engine.schedule e ~delay:1.0 log;
  Engine.schedule e ~delay:2.0 log;
  Engine.schedule e ~delay:0.5 (fun e ->
      Alcotest.check_raises "NaN delay"
        (Invalid_argument "Engine.schedule: NaN delay") (fun () ->
          Engine.schedule e ~delay:Float.nan log));
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_at: NaN time")
    (fun () -> Engine.schedule_at e ~time:Float.nan log);
  Alcotest.check_raises "NaN interval"
    (Invalid_argument "Engine.every: NaN interval") (fun () ->
      Engine.every e ~interval:Float.nan log);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "clock never NaN" [ 1.0; 2.0 ] (List.rev !fired)

let test_engine_until_never_rewinds () =
  (* Rewound to 3 with the event at 5 already fired, the clock would
     then accept an event at 4 and fire it after the one at 5. *)
  let e = Engine.create () in
  let fired = ref [] in
  let log e = fired := Engine.now e :: !fired in
  Engine.schedule_at e ~time:5.0 log;
  Engine.schedule_at e ~time:20.0 log;
  Engine.run ~until:10.0 e;
  Alcotest.check_raises "until before now"
    (Invalid_argument "Engine.run: until precedes now") (fun () ->
      Engine.run ~until:3.0 e);
  Alcotest.check_raises "NaN until" (Invalid_argument "Engine.run: NaN until")
    (fun () -> Engine.run ~until:Float.nan e);
  check_float "clock kept" 10.0 (Engine.now e);
  Engine.run ~until:10.0 e (* [until] = [now] is accepted *);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "monotone firing" [ 5.0; 20.0 ] (List.rev !fired)

let test_engine_releases_fired () =
  let e = Engine.create () in
  let w = Weak.create 1 in
  let schedule_holding () =
    let payload = Bytes.create 64 in
    Weak.set w 0 (Some payload);
    Engine.schedule e ~delay:1.0 (fun _ -> Bytes.set payload 0 'x')
  in
  schedule_holding ();
  ignore (Engine.step e);
  Gc.full_major ();
  Alcotest.(check bool) "fired closure collected" false (Weak.check w 0);
  (* Keep the engine itself alive across the collection. *)
  Alcotest.(check int) "queue drained" 0 (Engine.pending e)

let alloc_tick (_ : Engine.t) = ()

let test_engine_alloc () =
  (* Steady state with 1024 pending: per op, only the boxed [~delay]
     argument and the boxed clock (2 words each) may be allocated. Half
     way, the delays jump 1000x, so the calendar's bucket width changes
     inside the measured window, and relinking every pending event must
     allocate nothing either. *)
  let e = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let delays = Array.init 1024 (fun _ -> Rng.float rng 1.0) in
  let slow = Array.map (fun delay -> 1000.0 *. delay) delays in
  Array.iter (fun delay -> Engine.schedule e ~delay alloc_tick) delays;
  let ops = 100_000 in
  let before = Gc.minor_words () in
  for i = 0 to ops - 1 do
    let phase = if i < ops / 2 then delays else slow in
    Engine.schedule e ~delay:phase.(i land 1023) alloc_tick;
    ignore (Engine.step e)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "still 1024 pending" 1024 (Engine.pending e);
  (* 16 words of slack cover the two Gc.minor_words readings. *)
  if words > float_of_int ((4 * ops) + 16) then
    Alcotest.failf "%.3f minor words per schedule+step, want <= 4"
      (words /. float_of_int ops)

(* ------------------------------------------------------------------ *)
(* Engine against the binary-heap engine it replaced                   *)

(* The old event engine and its generic heap, kept verbatim as the
   oracle for the flat queue: only the metric calls, [Engine.rng] and
   the heap functions the engine never called are dropped. Dropping
   them leaves fields nothing reads, so each copy waives warning 69. *)
module Old_heap = struct
  [@@@warning "-69"]

  type 'a t = {
    cmp : 'a -> 'a -> int;
    mutable data : 'a array;
    mutable size : int;
    mutable reserve : int;
  }

  let create ?(capacity = 0) ~cmp () =
    if capacity < 0 then invalid_arg "Heap.create: negative capacity";
    { cmp; data = [||]; size = 0; reserve = capacity }

  let length t = t.size

  let grow t x =
    let capacity = Array.length t.data in
    if t.size = capacity then begin
      let new_capacity = max (max 8 t.reserve) (2 * capacity) in
      let data = Array.make new_capacity x in
      Array.blit t.data 0 data 0 t.size;
      t.data <- data
    end

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.cmp t.data.(i) t.data.(parent) < 0 then begin
        let tmp = t.data.(i) in
        t.data.(i) <- t.data.(parent);
        t.data.(parent) <- tmp;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let left = (2 * i) + 1 in
    let right = left + 1 in
    let smallest = ref i in
    if left < t.size && t.cmp t.data.(left) t.data.(!smallest) < 0 then
      smallest := left;
    if right < t.size && t.cmp t.data.(right) t.data.(!smallest) < 0 then
      smallest := right;
    if !smallest <> i then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(!smallest);
      t.data.(!smallest) <- tmp;
      sift_down t !smallest
    end

  let push t x =
    grow t x;
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let peek t = if t.size = 0 then None else Some t.data.(0)

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.data.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.data.(0) <- t.data.(t.size);
        sift_down t 0
      end;
      Some top
    end
end

module Old_engine = struct
  [@@@warning "-69"]

  module Heap = Old_heap

  type event = { time : float; seq : int; callback : t -> unit }

  and t = {
    mutable clock : float;
    mutable next_seq : int;
    queue : event Heap.t;
    root_rng : Rng.t;
  }

  let compare_event a b =
    let c = Float.compare a.time b.time in
    if c <> 0 then c else Int.compare a.seq b.seq

  let create ?(seed = 42) () =
    {
      clock = 0.0;
      next_seq = 0;
      queue = Heap.create ~cmp:compare_event ();
      root_rng = Rng.create ~seed;
    }

  let now t = t.clock

  let schedule_at t ~time callback =
    if time < t.clock then
      invalid_arg
        (Printf.sprintf "Engine.schedule_at: time %g precedes now %g" time
           t.clock);
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Heap.push t.queue { time; seq; callback }

  let schedule t ~delay callback =
    if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
    schedule_at t ~time:(t.clock +. delay) callback

  let every t ~interval ?until callback =
    if interval <= 0.0 then invalid_arg "Engine.every: non-positive interval";
    let rec tick engine =
      callback engine;
      let next = now engine +. interval in
      match until with
      | Some stop when next > stop -> ()
      | Some _ | None -> schedule_at engine ~time:next tick
    in
    schedule t ~delay:0.0 tick

  let pending t = Heap.length t.queue

  let step t =
    match Heap.pop t.queue with
    | None -> false
    | Some ev ->
        t.clock <- ev.time;
        ev.callback t;
        true

  let run ?until ?max_events t =
    let executed = ref 0 in
    let continue () =
      match max_events with None -> true | Some m -> !executed < m
    in
    let rec loop () =
      if continue () then
        match Heap.peek t.queue with
        | None -> ()
        | Some ev -> (
            match until with
            | Some stop when ev.time > stop -> t.clock <- stop
            | Some _ | None ->
                ignore (step t);
                incr executed;
                loop ())
    in
    loop ()
end

(* Most times are multiples of half a second drawn from a handful of
   values, so many events tie and the FIFO order of equal times decides.
   The rest spread over eleven decades (log-uniform delays from 1e-7 to
   1e4 s) or sit at 1e12 s and at [infinity], so the calendar's bucket
   width keeps changing, its years wrap and empty years are searched.
   Every [until] is [now] plus a non-negative offset: the old engine
   rewound the clock on an earlier one. *)
type op =
  | Schedule of int
  | Schedule_log of float  (** delay [10 ** x] with [x] in [-7, 4] *)
  | Schedule_at of int  (** -1 lies in the past: both engines raise *)
  | Schedule_far of float  (** absolute time 1e12 or [infinity] *)
  | Every of int * int option
  | Burst of int * int  (** [n] events with delays cycling over [k] values *)
  | Log_burst of int  (** [n] events with log-uniform delays *)
  | Step
  | Run of int option * int option
  | Short_run of int * float
      (** run until [now] + [k] half-seconds, then schedule [10 ** x]
          ahead: after a run that stopped short of its next event, an
          earlier event *)

type entry =
  | Fired of int * float
  | Stepped of bool
  | State of int * float
  | Raised
  | Invalid

exception Boom

let half k = 0.5 *. float_of_int k

(* A delay log-uniform over 1e-7 .. 1e4 s, from 16 bits of a hash. *)
let log_delay h = 10.0 ** (-7.0 +. (11.0 *. float_of_int (h land 0xFFFF) /. 65535.0))

(* Caps every run: once the clock reaches [infinity], an [every] there
   fires forever at the same instant. *)
let run_cap = 100_000

module type ENGINE = sig
  type t

  val create : ?seed:int -> unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (t -> unit) -> unit
  val schedule_at : t -> time:float -> (t -> unit) -> unit
  val every : t -> interval:float -> ?until:float -> (t -> unit) -> unit
  val pending : t -> int
  val step : t -> bool
  val run : ?until:float -> ?max_events:int -> t -> unit
end

module Replay (E : ENGINE) = struct
  (* Callback [id]'s behaviour is a fixed function of (salt, id): it may
     schedule a child (three generations at most) and may raise. *)
  let run ~salt ops =
    let e = E.create () in
    let log = ref [] in
    let emit x = log := x :: !log in
    let next_id = ref 0 in
    let rec fresh ~depth =
      let id = !next_id in
      incr next_id;
      fun engine ->
        emit (Fired (id, E.now engine));
        let h = ((id * 0x9E3779B1) + salt) land 0xFFFF in
        if depth < 3 && h mod 3 = 0 then
          E.schedule engine ~delay:(half (h / 3 mod 4)) (fresh ~depth:(depth + 1));
        if depth < 3 && h mod 5 = 1 then
          E.schedule_at engine
            ~time:(E.now engine +. half (h / 5 mod 3))
            (fresh ~depth:(depth + 1));
        if depth < 3 && h mod 7 = 2 then
          E.schedule engine ~delay:(log_delay (h * 7)) (fresh ~depth:(depth + 1));
        if h mod 17 = 4 then raise Boom
    in
    let until = Option.map (fun k -> E.now e +. half k) in
    let apply = function
      | Schedule d -> E.schedule e ~delay:(half d) (fresh ~depth:0)
      | Schedule_log x -> E.schedule e ~delay:(10.0 ** x) (fresh ~depth:0)
      | Schedule_at k -> E.schedule_at e ~time:(E.now e +. half k) (fresh ~depth:0)
      | Schedule_far time -> E.schedule_at e ~time (fresh ~depth:0)
      | Every (i, u) ->
          let id = !next_id in
          incr next_id;
          E.every e ~interval:(half (i + 1)) ?until:(until u) (fun engine ->
              emit (Fired (id, E.now engine)))
      | Burst (n, k) ->
          for j = 0 to n - 1 do
            E.schedule e ~delay:(half (j mod k)) (fresh ~depth:2)
          done
      | Log_burst n ->
          for j = 0 to n - 1 do
            E.schedule e ~delay:(log_delay ((j * 0x9E3779B1) + salt)) (fresh ~depth:2)
          done
      | Step -> emit (Stepped (E.step e))
      | Run (u, max_events) ->
          E.run ?until:(until u) ~max_events:(Option.value max_events ~default:run_cap) e
      | Short_run (k, x) ->
          E.run ~until:(E.now e +. half k) ~max_events:run_cap e;
          E.schedule e ~delay:(10.0 ** x) (fresh ~depth:0)
    in
    let guarded op =
      (try apply op with Boom -> emit Raised | Invalid_argument _ -> emit Invalid);
      emit (State (E.pending e, E.now e))
    in
    List.iter guarded ops;
    (* Drain 20 s past the last op (an [every] without [until] never
       empties the queue), stepping past callbacks that raise. *)
    let stop = E.now e +. 20.0 in
    let rec drain () =
      match E.run ~until:stop ~max_events:run_cap e with
      | () -> ()
      | exception Boom ->
          emit Raised;
          drain ()
    in
    drain ();
    emit (State (E.pending e, E.now e));
    List.rev !log
end

module New_replay = Replay (Engine)
module Old_replay = Replay (Old_engine)

let show_op = function
  | Schedule d -> Printf.sprintf "schedule %d" d
  | Schedule_log x -> Printf.sprintf "schedule 1e%.17g" x
  | Schedule_at k -> Printf.sprintf "schedule_at +%d" k
  | Schedule_far time -> Printf.sprintf "schedule_at %g" time
  | Every (i, u) ->
      Printf.sprintf "every %d%s" i
        (match u with Some k -> Printf.sprintf " until +%d" k | None -> "")
  | Burst (n, k) -> Printf.sprintf "burst %d/%d" n k
  | Log_burst n -> Printf.sprintf "log burst %d" n
  | Step -> "step"
  | Run (u, m) ->
      Printf.sprintf "run%s%s"
        (match u with Some k -> Printf.sprintf " until +%d" k | None -> "")
        (match m with Some m -> Printf.sprintf " max %d" m | None -> "")
  | Short_run (k, x) -> Printf.sprintf "run until +%d, schedule 1e%.17g" k x

let gen_op =
  let open QCheck.Gen in
  let log_exponent = map (fun x -> x -. 7.0) (float_bound_inclusive 11.0) in
  frequency
    [
      (6, map (fun d -> Schedule d) (int_bound 3));
      (4, map (fun x -> Schedule_log x) log_exponent);
      (3, map (fun k -> Schedule_at k) (int_range (-1) 3));
      (1, map (fun time -> Schedule_far time) (oneofl [ 1e12; Float.infinity ]));
      (1, map2 (fun i u -> Every (i, u)) (int_bound 2) (opt (int_bound 8)));
      (1, map2 (fun n k -> Burst (n, k)) (int_range 1 1500) (int_range 1 4));
      (1, map (fun n -> Log_burst n) (int_range 1 1500));
      (4, return Step);
      ( 2,
        (* Without [until], always bound the events: an [every] may be
           unbounded. *)
        map2
          (fun u m -> match u with None -> Run (None, Some m) | Some _ -> Run (u, None))
          (opt (int_bound 4)) (int_bound 40) );
      (1, map2 (fun u m -> Run (Some u, Some m)) (int_bound 4) (int_bound 40));
      (2, map2 (fun k x -> Short_run (k, x)) (int_bound 4) log_exponent);
    ]

let engine_matches_oracle =
  QCheck.Test.make ~name:"flat queue fires like the binary-heap engine" ~count:300
    (QCheck.make
       ~print:(fun (salt, ops) ->
         Printf.sprintf "salt %d: %s" salt (String.concat "; " (List.map show_op ops)))
       QCheck.Gen.(pair (int_bound 0xFFFF) (list_size (int_range 1 60) gen_op)))
    (fun (salt, ops) -> New_replay.run ~salt ops = Old_replay.run ~salt ops)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  let r = Stats.summarize s in
  Alcotest.(check int) "count" 4 r.Stats.n;
  check_float "mean" 2.5 r.Stats.mean;
  check_float "min" 1.0 r.Stats.min;
  check_float "max" 4.0 r.Stats.max;
  (* Sample variance of 1..4 is 5/3. *)
  Alcotest.(check (float 1e-9)) "variance" (5.0 /. 3.0) (r.Stats.stddev *. r.Stats.stddev)

let test_stats_empty () =
  let r = Stats.summarize (Stats.create ()) in
  Alcotest.(check bool) "mean nan" true (Float.is_nan r.Stats.mean);
  check_float "variance 0" 0.0 r.Stats.stddev

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 42.0;
  let r = Stats.summarize s in
  check_float "mean" 42.0 r.Stats.mean;
  check_float "variance" 0.0 r.Stats.stddev

let test_stats_quantile () =
  let s = Stats.create () in
  for i = 1 to 101 do
    Stats.add s (float_of_int i)
  done;
  let r = Stats.summarize s in
  check_float "median" 51.0 r.Stats.p50;
  check_float "p90" 91.0 r.Stats.p90;
  check_float "p99" 100.0 r.Stats.p99

let test_stats_reservoir_overflow () =
  (* More samples than the reservoir: quantiles remain sane estimates. *)
  let s = Stats.create ~reservoir:128 () in
  for i = 1 to 100_000 do
    Stats.add s (float_of_int (i mod 1000))
  done;
  let q = (Stats.summarize s).Stats.p50 in
  Alcotest.(check bool) "median plausible" true (q > 200.0 && q < 800.0)

let stats_qcheck_mean =
  QCheck.Test.make ~name:"streaming mean matches direct mean" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range (-1000.) 1000.))
    (fun l ->
      let s = Stats.create () in
      List.iter (Stats.add s) l;
      let direct = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      abs_float ((Stats.summarize s).Stats.mean -. direct) < 1e-6 *. (1.0 +. abs_float direct))

(* Literal summaries of fixed streams: one of 10^4 samples (past the
   default 4096-sample reservoir) and one into a 512-sample reservoir
   with its own seed. Fields are n, then mean, stddev, min,
   max, p50, p90 and p99 as IEEE bit patterns. *)
let test_stats_pinned () =
  let a = Stats.create () and b = Stats.create ~reservoir:512 ~seed:3 () in
  for i = 0 to 9999 do
    Stats.add a (float_of_int ((i * 7919) mod 1000) /. 10.0)
  done;
  for i = 0 to 2999 do
    Stats.add b (sin (float_of_int i))
  done;
  let check name s n bits =
    let r = Stats.summarize s in
    Alcotest.(check int) (name ^ " n") n r.Stats.n;
    Alcotest.(check (list int64)) name bits
      (List.map Int64.bits_of_float
         [ r.Stats.mean; r.stddev; r.min; r.max; r.p50; r.p90; r.p99 ])
  in
  check "10^4 samples" a 10_000
    [
      4632226654852848027L; 4628819102602492463L; 0L; 4636730254480218522L;
      4632289986722607923L; 4636030085475650765L; 4636667274454179514L;
    ];
  check "reservoir 512" b 3000
    [
      4558361607252512548L; 4604545425729371251L; -4616189698055289555L;
      4607182339939750410L; -4647124670886697998L; 4606578539119555493L;
      4607175285481028656L;
    ]

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_sim"
    [
      ( "rng",
        [
          tc "deterministic" `Quick test_rng_deterministic;
          tc "seed sensitivity" `Quick test_rng_seed_sensitivity;
          tc "int bounds" `Quick test_rng_int_bounds;
          tc "int invalid" `Quick test_rng_int_invalid;
          tc "float bounds" `Quick test_rng_float_bounds;
          tc "gaussian moments" `Slow test_rng_gaussian_moments;
          tc "exponential mean" `Slow test_rng_exponential_mean;
          tc "pareto scale" `Quick test_rng_pareto_scale;
          tc "invalid params" `Quick test_rng_invalid_params;
          tc "shuffle permutation" `Quick test_rng_shuffle_permutation;
          tc "pinned outputs" `Quick test_rng_pinned;
          tc "gaussian allocation" `Quick test_rng_gaussian_alloc;
        ] );
      ( "engine",
        [
          tc "time advance" `Quick test_engine_time_advance;
          tc "FIFO ties" `Quick test_engine_fifo_same_time;
          tc "nested schedule" `Quick test_engine_nested_schedule;
          tc "until" `Quick test_engine_until;
          tc "every" `Quick test_engine_every;
          tc "max events" `Quick test_engine_max_events;
          tc "negative delay" `Quick test_engine_negative_delay;
          tc "schedule in past" `Quick test_engine_schedule_past;
          tc "rejects NaN" `Quick test_engine_rejects_nan;
          tc "until never rewinds" `Quick test_engine_until_never_rewinds;
          tc "releases fired callbacks" `Quick test_engine_releases_fired;
          tc "schedule+step allocation" `Quick test_engine_alloc;
          qc engine_matches_oracle;
        ] );
      ( "stats",
        [
          tc "basic moments" `Quick test_stats_basic;
          tc "empty" `Quick test_stats_empty;
          tc "single" `Quick test_stats_single;
          tc "quantiles" `Quick test_stats_quantile;
          tc "reservoir overflow" `Slow test_stats_reservoir_overflow;
          qc stats_qcheck_mean;
          tc "pinned summaries" `Quick test_stats_pinned;
        ] );
    ]
