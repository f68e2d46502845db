(** Per-run metadata emitted with every snapshot, so a metrics file is
    self-describing: which experiment ran, under which seed and config,
    how long it took (wall and virtual), and how much the flight
    recorder saw. Schema documented in EXPERIMENTS.md. *)

type t = {
  experiment : string;  (** experiment id(s), e.g. ["fig3"] *)
  seed : int;  (** the deterministic simulation seed *)
  config_digest : string;  (** MD5 hex of the run configuration, [""] if none *)
  started_unix_s : float;  (** wall-clock start, Unix seconds *)
  wall_s : float;  (** wall-clock duration of the run *)
  virtual_s : float;  (** simulated time reached *)
  sim_events : int;  (** events the sim engine executed *)
  trace_recorded : int;  (** trace records ever written *)
  trace_dropped : int;  (** trace records lost to wraparound *)
}

type session

val start : experiment:string -> seed:int -> ?config:string -> unit -> session
(** Pin the wall clock at run start; [config] is the raw configuration
    text to digest (the file contents, a CLI summary — anything
    canonical): the manifest's [config_digest] is its MD5 hex ([""]
    without one). *)

val finish : session -> virtual_s:float -> sim_events:int -> Trace.t -> t
(** Close the session into a manifest, reading the trace counters. *)
