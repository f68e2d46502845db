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

val default : t
(** The paper deployment: default block, 10 ms probes, 100 ms reports,
    sites LA/NY with the deliberate clock skews and lowest-OWD policy. *)

val parse : string -> (t, string) result
(** Parse a configuration text; errors carry a line number. Unspecified
    fields take their {!default}s; sites must have unique names. *)

val parse_file : string -> (t, string) result

val to_string : t -> string
(** Render back to the concrete syntax ([parse (to_string t)] succeeds
    and yields an equal configuration). *)

val apply_vultr : t -> (Pair.t, string) result
(** Instantiate the two-site Vultr deployment from a configuration with
    exactly two sites named ["LA"] and ["NY"] (in any order). The Vultr
    deployment carves its prefixes from
    {!Addressing.default_block}, so a configuration naming any other
    [block] is an [Error] that names the block. The pair is fully set
    up (discovery done); measurement must still be started with the
    configured cadence, see {!measurement_args}. *)

val measurement_args : t -> float * float
(** [(probe_interval_s, report_interval_s)]. *)
