(** BGP update messages as they travel between speakers. *)

type t =
  | Announce of Route.t
      (** Route as placed on the wire: path already prepended by the
          sender; local attributes (local-pref, weight) are meaningless
          until the receiver's import policy assigns them. *)
  | Withdraw of Tango_net.Prefix.t

type emission = { to_node : int; update : t }
(** An update a speaker wants delivered to a neighbor. *)
