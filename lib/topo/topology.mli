(** AS-level topology graph.

    Nodes are identified by a small integer [node id] and carry an ASN
    separately: two border sites of the same provider (e.g. Vultr LA and
    Vultr NY) are distinct nodes sharing ASN 20473, exactly as in the
    paper's deployment. Edges are annotated with the business relationship
    and link properties. *)

type node = {
  id : int;
  asn : int;
  name : string;
  private_asn : bool;  (** True for customer servers on private ASNs. *)
}

type t

val create : unit -> t

val add_node : t -> id:int -> asn:int -> ?private_asn:bool -> string -> unit
(** Raises [Invalid_argument] when the id is already taken. *)

val connect :
  t -> provider:int -> customer:int -> ?link:Link.t -> unit -> unit
(** Provider–customer edge. Raises if either endpoint is unknown, the
    edge already exists, or [provider = customer]. *)

val connect_peers : t -> int -> int -> ?link:Link.t -> unit -> unit
(** Settlement-free peering edge. *)

val node : t -> int -> node
(** Raises [Not_found] for unknown ids. *)

val nodes : t -> node list
(** All nodes in insertion order. *)

val asn : t -> int -> int

val relationship : t -> int -> int -> Relationship.t option
(** [relationship t a b]: [b]'s role relative to [a] ([Some Customer] =
    b is a's customer), [None] when not adjacent. *)

val link : t -> int -> int -> Link.t option

val neighbors : t -> int -> (int * Relationship.t * Link.t) list
(** Adjacent node ids with the neighbor's role and the link, in edge
    insertion order (deterministic). *)

val customers : t -> int -> int list
val providers : t -> int -> int list

(* test-hook: test/test_bgp.ml *)
val is_valley_free : t -> int list -> bool
(** Check a node-id path (traffic direction) against Gao–Rexford: once
    the path goes down (provider→customer) or sideways (peer), it must
    keep going down. Vacuously true for paths shorter than 3. The oracle
    the BGP tests hold converged paths to. *)
