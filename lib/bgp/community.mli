(** BGP communities (RFC 1997) and the provider "action communities"
    Tango leans on.

    A community is a 32-bit value written [asn:value]. Transit providers
    such as Vultr's AS 20473 publish action communities their customers
    can attach to shape the provider's outbound announcements; the ones
    modelled here follow Vultr's BGP customer guide: suppress export to a
    specific AS, export only to a specific AS, prepend on export to a
    specific AS, and do-not-export-to-any-transit. Only the provider that
    owns the action namespace interprets them — everyone else carries
    them transparently, which is what lets a Tango endpoint steer a
    remote provider's announcements. *)

type t = int * int
(** [(upper, lower)], each 16-bit. *)

val to_string : t -> string

module Set : Stdlib.Set.S with type elt = t

(** Provider-interpreted actions. The [int] argument names a neighbor ASN
    of the interpreting provider. *)
type action =
  | No_export_to of int  (** Do not announce to this neighbor AS. *)
  | Export_only_to of int  (** Announce only to this neighbor AS. *)
  | Prepend_to of int * int  (** [(asn, n)]: prepend n times (1-3) to asn. *)
  | No_export_transit  (** Do not announce to any transit provider. *)

val action_to_community : action -> t
(** Raises [Invalid_argument] when the neighbor ASN exceeds 16 bits or a
    prepend count lies outside 1-3. *)

val actions_of_set : Set.t -> action list
(** All decodable actions carried in a community set, in community
    order. *)

val no_export_well_known : t
(** RFC 1997 NO_EXPORT (65535:65281). *)
