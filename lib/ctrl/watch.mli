(** Churn detection: per-prefix snapshots of the observer-side best AS
    path, classified against the live BGP table.

    A watch records, for each watched prefix (in practice: the peer
    site's per-path tunnel prefixes), the AS path its observer node
    selected at snapshot time. A check re-reads the table and classifies
    every prefix:

    - [Live]: same AS path as the baseline — the tunnel's wide-area
      route is intact;
    - [Moved]: a route exists but its AS path changed — the tunnel now
      rides a different wide-area path, so its discovery-time metadata
      (transits, label, delay floor) is stale;
    - [Gone]: no route at all — the tunnel black-holes.

    Checks are read-only and cheap (one table lookup and one AS-path
    comparison per prefix, no allocation beyond the lookup), so the
    reconciler can run them both on a cadence and after every BGP origin
    event. *)

type verdict = Live | Moved | Gone

type t

val create :
  net:Tango_bgp.Network.t -> observer:int -> prefixes:Tango_net.Prefix.t list -> t
(** Snapshot the observer's current best path for every prefix as the
    baseline. *)

val verdict_of :
  baseline:Tango_bgp.As_path.t option ->
  current:Tango_bgp.As_path.t option ->
  verdict
(** The pure classification rule. *)

val check : t -> verdict array
(** Classify every watched prefix, in watch order. *)

val all_live : t -> bool
(** [true] iff every watched prefix classifies [Live]; stops at the
    first deviation, so the common no-churn case costs the least. *)

val rebase : t -> unit
(** Re-snapshot every baseline from the live table — done after a
    reconciliation epoch installs a new path table. *)
