(** The BGP route decision process.

    Standard ordering with one documented deviation: the per-neighbor
    operator weight is compared {e after} AS-path length rather than
    first (as Cisco's [weight] would be). This reproduces the behaviour
    the paper observed at Vultr: direct transit paths beat two-transit
    paths regardless of which transit carries them, and the NTT > Telia >
    GTT ordering only breaks ties among equal-length paths. *)

val best : Route.t list -> Route.t option
(** The most preferred candidate under a total order: local routes
    first, then higher local-pref, shorter AS path, higher neighbor
    weight, lower origin rank, lower advertising node id. Every route
    carries MED 0, so MED never decides. Of equal candidates, the first
    wins. *)

val rank : Route.t list -> Route.t list
(** All candidates, most preferred first. *)
