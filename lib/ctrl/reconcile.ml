module Engine = Tango_sim.Engine
module Rng = Tango_sim.Rng
module Network = Tango_bgp.Network
module As_path = Tango_bgp.As_path
module Prefix = Tango_net.Prefix
module Metric = Tango_obs.Metric
module Trace = Tango_obs.Trace
module Pair = Tango.Pair
module Pop = Tango.Pop
module Policy = Tango.Policy
module Discovery = Tango.Discovery
module Addressing = Tango.Addressing

(* Process-wide observability (DESIGN.md §10). *)
let m_checks =
  Metric.counter ~help:"Churn checks run (cadence + event-driven)"
    "reconcile_checks_total"

let m_epochs =
  Metric.counter ~help:"Reconciliation epochs started" "reconcile_epochs_total"

let m_epochs_failed =
  Metric.counter
    ~help:"Reconciliation epochs that found no usable path table"
    "reconcile_epochs_failed_total"

let m_paths_moved =
  Metric.counter ~help:"Watched prefixes classified Moved at epoch start"
    "reconcile_paths_moved_total"

let m_paths_gone =
  Metric.counter ~help:"Watched prefixes classified Gone at epoch start"
    "reconcile_paths_gone_total"

let m_bgp_messages =
  Metric.counter ~help:"BGP updates caused by reconciliation epochs"
    "reconcile_bgp_messages_total"

let m_budget_exhausted =
  Metric.counter ~help:"Epochs truncated by the per-epoch BGP message budget"
    "reconcile_budget_exhausted_total"

let h_rediscovery =
  Metric.histogram
    ~help:"Virtual time from epoch start to installed, rebased path table \
           (seconds)"
    ~lo_exp:(-6) ~buckets:16 "reconcile_rediscovery_seconds"

let k_epoch = Trace.kind "reconcile.epoch"

let k_install = Trace.kind "reconcile.install"

type config = {
  cadence_s : float;
  debounce_s : float;
  settle_s : float;
  budget_msgs : int;
  iteration_cost_hint : int;
  backoff_base_s : float;
  backoff_max_s : float;
  jitter_frac : float;
  max_paths : int;
  drain_ban_s : float;
}

let default_config =
  {
    cadence_s = 1.0;
    debounce_s = 0.2;
    settle_s = 0.75;
    budget_msgs = 600;
    iteration_cost_hint = 40;
    backoff_base_s = 1.0;
    backoff_max_s = 30.0;
    jitter_frac = 0.1;
    max_paths = 16;
    drain_ban_s = 5.0;
  }

type direction = To_ny | To_la

let direction_to_string = function To_ny -> "to-ny" | To_la -> "to-la"

let mechanism = `Communities

type dir_state = {
  direction : direction;
  sender : Pop.t;  (* installs the table; its node observes *)
  origin : int;  (* receiver's node: announces probe + tunnel prefixes *)
  probe_prefix : Prefix.t;
  tunnel_prefixes : Prefix.t array;
  watch : Watch.t;
  mutable running : bool;
  mutable check_scheduled : bool;
  mutable fails : int;  (* consecutive failed/truncated epochs *)
  mutable not_before_s : float;  (* backoff gate *)
  mutable epochs : int;
  mutable epochs_failed : int;
  mutable epochs_truncated : int;
  mutable last_epoch_msgs : int;
  mutable total_msgs : int;
  mutable last_recovery_s : float;  (* duration of last successful epoch *)
  mutable cost_hint : int;  (* max BGP cost of one origination seen so far *)
}

type t = {
  config : config;
  engine : Engine.t;
  net : Network.t;
  rng : Rng.t;
  until_s : float;
  to_ny : dir_state;
  to_la : dir_state;
  mutable channel : Channel.t option;
  mutable checks : int;
}

type dir_stats = {
  epochs : int;
  failed : int;
  truncated : int;
  last_msgs : int;
  total_msgs : int;
  last_recovery_s : float;
  paths : int;
}

let dir_state t = function To_ny -> t.to_ny | To_la -> t.to_la

let dir_tag = function To_ny -> 0 | To_la -> 1

let msgs t = Network.messages_delivered t.net

let policy_of st = Pop.policy st.sender

(* ------------------------------------------------------------------ *)
(* The epoch state machine. One epoch re-derives the suffix of the
   path table starting at the first non-Live index, as an asynchronous
   announce → settle → observe loop on the engine — never a recursive
   Network.converge, which would fast-forward virtual time from inside
   a scheduled event. *)

let rec iterate t st ~msgs_before ~started_s suppressed acc index =
  let spent = msgs t - msgs_before in
  if index >= t.config.max_paths then
    finish t st ~msgs_before ~started_s ~truncated:false acc
  else if spent + (2 * st.cost_hint) > t.config.budget_msgs then begin
    (* Not enough budget for another iteration plus the final withdraw:
       stop here, install what we have, retry the rest after backoff. *)
    Metric.incr m_budget_exhausted;
    finish t st ~msgs_before ~started_s ~truncated:true acc
  end
  else begin
    let before_iter = msgs t in
    Discovery.announce_step ~net:t.net ~origin:st.origin
      ~probe_prefix:st.probe_prefix ~mechanism ~suppressed ();
    Engine.schedule t.engine ~delay:t.config.settle_s (fun _ ->
        st.cost_hint <- max st.cost_hint (msgs t - before_iter);
        match
          Discovery.observe_step ~net:t.net ~origin:st.origin
            ~observer:(Pop.node st.sender) ~probe_prefix:st.probe_prefix ~mechanism
            ~suppressed ~index ()
        with
        | None -> finish t st ~msgs_before ~started_s ~truncated:false acc
        | Some p
          when List.exists
                 (fun (q : Discovery.path) ->
                   As_path.equal q.Discovery.as_path p.Discovery.as_path)
                 acc ->
            finish t st ~msgs_before ~started_s ~truncated:false acc
        | Some p -> (
            match Discovery.next_suppression ~mechanism ~suppressed p with
            | None ->
                finish t st ~msgs_before ~started_s ~truncated:false (p :: acc)
            | Some grown ->
                iterate t st ~msgs_before ~started_s grown (p :: acc)
                  (index + 1)))
  end

and finish t st ~msgs_before ~started_s ~truncated acc =
  (* Withdraw the probe prefix first — no probe state may survive the
     epoch — then let the withdrawal settle before installing. *)
  Network.withdraw t.net ~node:st.origin st.probe_prefix;
  Engine.schedule t.engine ~delay:t.config.settle_s (fun _ ->
      let paths = List.rev acc in
      match paths with
      | [] ->
          (* The observer cannot see the origin at all right now. *)
          st.epochs_failed <- st.epochs_failed + 1;
          Metric.incr m_epochs_failed;
          conclude t st ~msgs_before ~started_s ~ok:false ~truncated
      | _ :: _ ->
          let old_n = Pop.path_count st.sender in
          let new_n = List.length paths in
          Pop.install_outbound_paths st.sender paths;
          (* Lift the drains on indices the new table validates; indices
             beyond it stay banned until their drain expires. *)
          for i = 0 to new_n - 1 do
            Policy.unban (policy_of st) ~path:i
          done;
          (* Re-announce the receiver's tunnel prefixes with the fresh
             suppression sets — this actively restores routes the churn
             withdrew or stripped — and withdraw prefixes the new table
             no longer backs. Budget-gated like the iterations. *)
          let truncated = ref truncated in
          Array.iteri
            (fun i prefix ->
              if i < new_n || i < old_n then begin
                if msgs t - msgs_before + st.cost_hint > t.config.budget_msgs
                then truncated := true
                else if i < new_n then
                  Network.announce t.net ~node:st.origin prefix
                    ~communities:(List.nth paths i).Discovery.communities ()
                else Network.withdraw t.net ~node:st.origin prefix
              end)
            st.tunnel_prefixes;
          Trace.record Trace.default ~now:(Engine.now t.engine)
            ~kind:k_install (dir_tag st.direction) new_n;
          Engine.schedule t.engine ~delay:t.config.settle_s (fun _ ->
              Watch.rebase st.watch;
              conclude t st ~msgs_before ~started_s ~ok:true
                ~truncated:!truncated))

and conclude t st ~msgs_before ~started_s ~ok ~truncated =
  let now = Engine.now t.engine in
  let spent = msgs t - msgs_before in
  st.last_epoch_msgs <- spent;
  st.total_msgs <- st.total_msgs + spent;
  Metric.add m_bgp_messages spent;
  st.running <- false;
  if truncated then st.epochs_truncated <- st.epochs_truncated + 1;
  if ok && not truncated then begin
    st.fails <- 0;
    st.not_before_s <- now;
    st.last_recovery_s <- now -. started_s;
    Metric.observe h_rediscovery (now -. started_s);
    Trace.record Trace.default ~now ~kind:k_epoch (dir_tag st.direction) spent
  end
  else begin
    (* Exponential backoff with jitter before touching BGP again. *)
    st.fails <- st.fails + 1;
    let backoff =
      Float.min t.config.backoff_max_s
        (t.config.backoff_base_s *. (2.0 ** float_of_int (st.fails - 1)))
    in
    let backoff = backoff *. (1.0 +. (t.config.jitter_frac *. Rng.float t.rng 1.0)) in
    st.not_before_s <- now +. backoff;
    schedule_check t st ~delay:backoff
  end

and start_epoch t st =
  let now = Engine.now t.engine in
  let verdicts = Watch.check st.watch in
  let n_watched = Array.length verdicts in
  let first_bad = ref n_watched in
  for i = n_watched - 1 downto 0 do
    match verdicts.(i) with
    | Watch.Live -> ()
    | Watch.Moved ->
        Metric.incr m_paths_moved;
        first_bad := i
    | Watch.Gone ->
        Metric.incr m_paths_gone;
        first_bad := i
  done;
  if !first_bad < n_watched then begin
    st.running <- true;
    st.epochs <- st.epochs + 1;
    Metric.incr m_epochs;
    (* Drain the affected dead paths right away: traffic leaves them via
       the ban machinery while re-discovery runs, instead of waiting for
       staleness detection. Affected-but-Live indices keep carrying
       traffic — only their table metadata is being re-derived. *)
    List.iteri
      (fun i (_ : Discovery.path) ->
        if i >= !first_bad && i < n_watched then
          match verdicts.(i) with
          | Watch.Gone ->
              Policy.ban (policy_of st) ~path:i ~now_s:now
                ~for_s:t.config.drain_ban_s
          | Watch.Live | Watch.Moved -> ())
      (Pop.outbound_paths st.sender);
    let keep = List.filteri (fun i _ -> i < !first_bad) (Pop.outbound_paths st.sender) in
    let suppressed = Discovery.suppression_of ~mechanism keep in
    iterate t st ~msgs_before:(msgs t) ~started_s:now suppressed
      (List.rev keep) !first_bad
  end

and check_dir t st =
  if Engine.now t.engine <= t.until_s then begin
    t.checks <- t.checks + 1;
    Metric.incr m_checks;
    if
      (not st.running)
      && Engine.now t.engine >= st.not_before_s
      && not (Watch.all_live st.watch)
    then start_epoch t st
  end

and schedule_check t st ~delay =
  let now = Engine.now t.engine in
  if (not st.check_scheduled) && now +. delay <= t.until_s then begin
    st.check_scheduled <- true;
    Engine.schedule t.engine ~delay (fun _ ->
        st.check_scheduled <- false;
        check_dir t st)
  end

(* ------------------------------------------------------------------ *)
(* Arming *)

let make_dir ~net ~pair ~direction =
  let sender, receiver, subnet_index =
    match direction with
    | To_ny -> (Pair.pop_la pair, Pair.pop_ny pair, 16 * 95)
    | To_la -> (Pair.pop_ny pair, Pair.pop_la pair, 16 * 94)
  in
  let tunnel_prefixes =
    Array.of_list (Pop.plan receiver).Addressing.tunnel_prefixes
  in
  {
    direction;
    sender;
    origin = Pop.node receiver;
    probe_prefix = Prefix.subnet Addressing.default_block 16 subnet_index;
    tunnel_prefixes;
    watch =
      Watch.create ~net ~observer:(Pop.node sender)
        ~prefixes:(Array.to_list tunnel_prefixes);
    running = false;
    check_scheduled = false;
    fails = 0;
    not_before_s = neg_infinity;
    epochs = 0;
    epochs_failed = 0;
    epochs_truncated = 0;
    last_epoch_msgs = 0;
    total_msgs = 0;
    last_recovery_s = nan;
    cost_hint = 0;
  }

let arm ~pair ?(config = default_config) ?(seed = 0) ?(with_channel = true)
    ~until_s () =
  if config.settle_s <= 0.0 then invalid_arg "Reconcile.arm: non-positive settle";
  if config.budget_msgs <= 0 then invalid_arg "Reconcile.arm: non-positive budget";
  let engine = Pair.engine pair in
  let net = Pair.network pair in
  let t =
    {
      config;
      engine;
      net;
      rng = Rng.create ~seed:(seed + 0x7ec0);
      until_s;
      to_ny = make_dir ~net ~pair ~direction:To_ny;
      to_la = make_dir ~net ~pair ~direction:To_la;
      channel = None;
      checks = 0;
    }
  in
  t.to_ny.cost_hint <- config.iteration_cost_hint;
  t.to_la.cost_hint <- config.iteration_cost_hint;
  (* Event-driven checks: any (re-)origination touching a watched tunnel
     prefix — BGP faults included — schedules a debounced check of the
     affected direction. Our own epoch announcements are filtered by the
     running flag and the probe prefixes never match. *)
  Network.add_origin_listener net (fun ~node:_ prefix ->
      let interesting st =
        (not st.running)
        && Array.exists (fun p -> Prefix.equal p prefix) st.tunnel_prefixes
      in
      if interesting t.to_ny then
        schedule_check t t.to_ny ~delay:config.debounce_s;
      if interesting t.to_la then
        schedule_check t t.to_la ~delay:config.debounce_s);
  (* Cadence checks. [Engine.every] fires immediately too, which is a
     no-op on a healthy table. *)
  Engine.every engine ~interval:config.cadence_s ~until:until_s (fun _ ->
      check_dir t t.to_ny;
      check_dir t t.to_la);
  if with_channel then begin
    let channel =
      Channel.attach ~engine ~pop_a:(Pair.pop_la pair) ~pop_b:(Pair.pop_ny pair)
        ~until_s ()
    in
    (* Re-sync on recovery: a partition may have hidden churn from the
       watches' event sources, so check both directions at once. *)
    Channel.set_on_recover channel (fun _pop ->
        schedule_check t t.to_ny ~delay:0.0;
        schedule_check t t.to_la ~delay:0.0);
    t.channel <- Some channel
  end;
  t

(* ------------------------------------------------------------------ *)
(* Read side *)

let config t = t.config

let channel t = t.channel

let checks t = t.checks

let stats t direction =
  let st = dir_state t direction in
  {
    epochs = st.epochs;
    failed = st.epochs_failed;
    truncated = st.epochs_truncated;
    last_msgs = st.last_epoch_msgs;
    total_msgs = st.total_msgs;
    last_recovery_s = st.last_recovery_s;
    paths = Pop.path_count st.sender;
  }
