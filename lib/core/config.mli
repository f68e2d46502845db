(** Deployment configuration files.

    The paper's prototype "generated static configurations for tunnel
    endpoints" next to hand-written BIRD configs; this module gives the
    reproduction the same operational surface: a small BIRD-style text
    format describing a two-site deployment — the address block, the
    measurement cadence, and per-site clock offsets and routing policies
    — that parses into a validated {!t} and applies directly onto the
    Vultr scenario.

    {v
    # tango.conf
    block 2001:db8:4000::/34;

    measurement {
      probe-interval 0.010;
      report-interval 0.100;
    }

    site "LA" {
      clock-offset-ns 37000000;
      policy lowest-owd { hysteresis-ms 1.0; dwell-s 2.0; }
    }

    site "NY" {
      clock-offset-ns -12000000;
      policy jitter-aware { beta 5.0; hysteresis-ms 1.0; dwell-s 2.0; }
    }
    v}

    Comments run from [#] to end of line. Policies: [bgp-default],
    [static N], [lowest-owd { ... }], [jitter-aware { ... }]. *)

type site = {
  name : string;
  clock_offset_ns : int64;
  policy : Policy.spec;
}

type t = {
  block : Tango_net.Prefix.t;
  probe_interval_s : float;
  report_interval_s : float;
  sites : site list;
}

val parse_file : string -> (t, string) result
(** Read and parse a configuration file; errors carry a line number.
    Unspecified fields take the paper deployment's defaults: the default
    block, 10 ms probes, 100 ms reports, and sites LA and NY with
    clock offsets of +37 ms and -12 ms, each running lowest-OWD (1 ms
    hysteresis, 1 s dwell). Sites must have unique names. Numbers are
    checked as the CLI checks its flags: intervals are finite and
    positive; [beta], [hysteresis-ms] and [dwell-s] are finite and
    non-negative; [clock-offset-ns] is an integer of at most 2^53 ns in
    magnitude and a [static] path a non-negative integer. *)

(* test-hook: test/test_tango.ml *)
val to_string : t -> string
(** Render back to the concrete syntax: the oracle of the round-trip
    test ([parse_file] of the text yields an equal configuration). *)

val apply_vultr :
  ?seed:int -> ?scenario:Tango_workload.Fig4.t -> t -> (Pair.t, string) result
(** Instantiate the two-site Vultr deployment ({!Pair.setup_vultr} with
    the given [seed] and [scenario] dynamics) from a configuration with
    exactly two sites named ["LA"] and ["NY"] (in any order), which set
    the policies and clock offsets. The Vultr deployment carves its
    prefixes from {!Addressing.default_block}, so a configuration naming
    any other [block] is an [Error] that names the block, and so is a
    [static] path at or past the site's discovered path count. The pair is
    fully set up (discovery done); measurement must still be started
    with the configured cadence, see {!measurement_args}. *)

val measurement_args : t -> float * float
(** [(probe_interval_s, report_interval_s)]. *)
