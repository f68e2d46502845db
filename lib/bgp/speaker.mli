(** A BGP speaker: one router's RIBs, import/export policy and decision
    process.

    Speakers are pure state machines over {!Update.t} messages: every
    mutation returns the list of updates that should be delivered to
    neighbors, and the surrounding {!Network} decides when they arrive.
    Policy knobs:

    - [allowas_in]: accept paths containing our own ASN (needed when two
      sites share a provider ASN, as Vultr LA/NY do);
    - [remove_private_on_export]: strip private ASNs from exported paths
      (what Vultr does to its BGP customers' session ASNs);
    - [interprets_actions]: honor {!Community.action} communities on
      routes learned from customers — only the provider whose community
      guide the customer follows sets this. *)

type neighbor = {
  node_id : int;
  asn : int;
  rel : Tango_topo.Relationship.t;  (** The neighbor's role relative to this speaker. *)
  weight : int;
  import_local_pref : int option;
}

type t

val create :
  node_id:int ->
  asn:int ->
  ?allowas_in:bool ->
  ?remove_private_on_export:bool ->
  ?interprets_actions:bool ->
  unit ->
  t

val add_neighbor :
  t ->
  node_id:int ->
  asn:int ->
  rel:Tango_topo.Relationship.t ->
  ?weight:int ->
  ?import_local_pref:int ->
  unit ->
  unit
(** Raises [Invalid_argument] on duplicate neighbor ids. *)

val originate :
  t ->
  Tango_net.Prefix.t ->
  ?communities:Community.Set.t ->
  ?poison:int list ->
  unit ->
  Update.emission list
(** Originate (or re-originate with new attributes) a prefix.
    [poison] lists ASNs inserted before the origin so those ASes drop the
    route by loop detection. Returns the updates to deliver. *)

val withdraw_origin : t -> Tango_net.Prefix.t -> Update.emission list

val receive : t -> from_node:int -> Update.t -> Update.emission list
(** Process one update from a neighbor; raises [Invalid_argument] if
    [from_node] is not a configured neighbor. *)

val best : t -> Tango_net.Prefix.t -> Route.t option
(** Selected route, if any (locally originated prefixes included). *)

val loc_rib : t -> (Tango_net.Prefix.t * Route.t) list
(** The full selected table, in {!Tango_net.Prefix.compare} order. *)

val lookup : t -> Tango_net.Addr.t -> Route.t option
(** Longest-prefix match of an address over the loc-RIB: the selected
    route of the longest prefix that holds it, or [None].

    It scans a forwarding table that keeps the loc-RIB as arrays,
    longest prefix first, and allocates nothing. Every change to the
    loc-RIB (an origination, a withdrawal or a received update that
    moves a best route) marks the table stale; the next lookup rebuilds
    it with one fold and one sort of the loc-RIB, so a burst of updates
    between lookups costs one rebuild. *)

val residual : t -> Tango_net.Prefix.t -> bool
(** Whether {e any} of this speaker's tables (adj-RIB-in, loc-RIB,
    adj-RIB-out, originations) still references [prefix] — the
    observation hook behind the "no probe-prefix state survives
    discovery" invariant and the reconciler's leak checks. *)
