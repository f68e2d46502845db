(** A BGP route: a prefix plus its path attributes, with the local
    (non-transitive) attributes the decision process needs. *)

type origin = Igp | Egp | Incomplete

val origin_rank : origin -> int
(** Lower is preferred: IGP 0, EGP 1, INCOMPLETE 2. *)

type t = {
  prefix : Tango_net.Prefix.t;
  path : As_path.t;
  next_hop : int;  (** Node id of the advertising router; own id if local. *)
  learned_from : int option;  (** Neighbor node id; [None] = originated here. *)
  local_pref : int;
  neighbor_weight : int;
      (** Operator preference among otherwise-equal neighbors; a late
          tie-break (after path length) in our decision process —
          reproducing the transit ordering the paper observed at Vultr.
          {!make} sets 0; a speaker sets its neighbor's weight on import. *)
  origin : origin;
  communities : Community.Set.t;
}

val make :
  prefix:Tango_net.Prefix.t ->
  path:As_path.t ->
  next_hop:int ->
  ?learned_from:int ->
  ?local_pref:int ->
  ?origin:origin ->
  ?communities:Community.Set.t ->
  unit ->
  t

val local : t -> bool
val has_community : t -> Community.t -> bool
