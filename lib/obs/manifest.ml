(* Per-run metadata: what ran, under which seed and configuration, for
   how long, and how much the flight recorder saw. One manifest is
   emitted per exported snapshot so a metrics file is self-describing —
   the reader never has to guess which invocation produced it. *)

type t = {
  experiment : string;
  seed : int;
  config_digest : string;
  started_unix_s : float;
  wall_s : float;
  virtual_s : float;
  sim_events : int;
  trace_recorded : int;
  trace_dropped : int;
}

let digest_of_string s = Digest.to_hex (Digest.string s)

let now_unix_s () = Unix.gettimeofday ()

(* A clock pinned at creation so [finish] measures one run's wall time. *)
type session = { run_experiment : string; run_seed : int; run_config : string; t0 : float }

let start ~experiment ~seed ?(config = "") () =
  { run_experiment = experiment; run_seed = seed; run_config = config; t0 = now_unix_s () }

let finish session ~virtual_s ~sim_events trace =
  {
    experiment = session.run_experiment;
    seed = session.run_seed;
    config_digest =
      (if String.length session.run_config = 0 then ""
       else digest_of_string session.run_config);
    started_unix_s = session.t0;
    wall_s = now_unix_s () -. session.t0;
    virtual_s;
    sim_events;
    trace_recorded = Trace.recorded trace;
    trace_dropped = Trace.dropped trace;
  }
