(** Event-driven BGP over a topology.

    One {!Speaker.t} per topology node; updates travel over the inter-AS
    links with the link's propagation delay plus a per-update processing
    delay, through the shared discrete-event {!Tango_sim.Engine.t}. With
    Gao–Rexford-consistent policies the system always converges (the
    event queue drains), at which point routes and AS-level forwarding
    paths can be queried. *)

type overrides = {
  allowas_in : bool option;
  interprets_actions : bool option;
  remove_private_on_export : bool option;
  neighbor_weight : (int -> int) option;  (** Neighbor node id -> weight. *)
  neighbor_local_pref : (int -> int option) option;
}

val no_overrides : overrides

type t

val create :
  ?mrai_s:float ->
  ?configure:(Tango_topo.Topology.node -> overrides) ->
  Tango_topo.Topology.t ->
  Tango_sim.Engine.t ->
  t
(** Build speakers for every node. Defaults derived from the topology:
    [allowas_in] when the node's ASN appears on several nodes;
    [interprets_actions] and [remove_private_on_export] when the node has
    a private-ASN customer (i.e. it is the provider whose community guide
    the Tango servers follow). A fixed 0.05 s of processing is added to
    the link delay for each update delivery. *)

val topology : t -> Tango_topo.Topology.t
val engine : t -> Tango_sim.Engine.t
val speaker : t -> int -> Speaker.t
(** Raises [Invalid_argument] for unknown node ids. *)

val announce :
  t ->
  node:int ->
  Tango_net.Prefix.t ->
  ?communities:Community.Set.t ->
  ?poison:int list ->
  unit ->
  unit
(** Originate (or re-originate) a prefix at a node; propagation is
    scheduled on the engine — call {!converge} to let it settle. *)

val withdraw : t -> node:int -> Tango_net.Prefix.t -> unit

val converge : t -> float
(** Run the engine until no BGP work remains (or an hour of virtual
    time elapses); returns the virtual time consumed. *)

val as_path : t -> node:int -> Tango_net.Prefix.t -> As_path.t option
(** AS path of the selected route at the node. *)

val route_for_addr : t -> node:int -> Tango_net.Addr.t -> Route.t option
(** Longest-prefix match over the node's loc-RIB: {!Speaker.lookup} on
    the node's speaker. A scan of the speaker's forwarding table that
    allocates nothing; the table is rebuilt on the first lookup after
    the node's loc-RIB changes. {!forwarding_path} and the data plane's
    per-hop forwarding resolve routes through it. *)

val forwarding_path : t -> from_node:int -> Tango_net.Addr.t -> int list option
(** Node-id path data packets follow from [from_node] to the address's
    originator, by chaining per-node best routes. [None] when the address
    is unroutable somewhere along the way; loops (impossible under sane
    policy) are cut after 64 hops and reported as [None]. *)

val messages_delivered : t -> int
(** Total BGP updates delivered since creation (churn / convergence
    cost metric). *)

val revision : t -> int
(** Monotone stamp of loc-RIB state: bumped on every origination,
    withdrawal and delivered update. Read-side route caches (the
    fabric's batched fast path) revalidate against it — equal revision
    means no table anywhere has changed since the cache was filled.
    May over-count (bumps with no visible best-route change); it never
    under-counts. *)

(** {1 Table observation hooks}

    Control-plane reconciliation ({!Tango_ctrl}) watches the network for
    churn: a listener fires synchronously each time any node originates,
    re-originates or withdraws a prefix (including the fault engine's
    BGP faults), and {!residual_nodes} audits per-prefix table state. *)

val add_origin_listener : t -> (node:int -> Tango_net.Prefix.t -> unit) -> unit
(** Register a callback invoked on every {!announce}/{!withdraw}, with
    the originating node and the prefix. Listeners run synchronously in
    registration order; exceptions propagate to the caller of the
    origination. *)

(* test-hook: test/test_reconcile.ml *)
val residual_nodes : t -> Tango_net.Prefix.t -> int list
(** Sorted node ids whose speaker still holds {e any} state for
    [prefix] (adj-RIB-in, loc-RIB, adj-RIB-out or an origination) — []
    once the prefix has been fully withdrawn and propagated: the audit
    the reconciler tests run after a withdrawal. *)
