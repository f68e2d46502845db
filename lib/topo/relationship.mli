(** AS business relationships, seen from one endpoint of a link.

    [Customer] means "the neighbor is my customer", [Provider] means "the
    neighbor is my provider". The standard Gao–Rexford rules are provided
    here so every policy decision in the BGP layer shares one definition. *)

type t = Customer | Provider | Peer

val equal : t -> t -> bool

val inverse : t -> t
(** How the neighbor sees me: a customer's neighbor is its provider. *)

val export_allowed : learned_from:t -> exporting_to:t -> bool
(** Gao–Rexford export rule: a route learned from a customer may be
    exported to anyone; routes learned from peers or providers may be
    exported only to customers. *)

val base_local_pref : t -> int
(** Gao–Rexford preference: customer (300) > peer (200) > provider (100). *)
