(** Address-plan carving (§3: "Tango separates edge-network addressing
    from interdomain prefixes").

    Each Tango site draws from a common institution block (the paper used
    a Princeton IPv6 allocation) one {b host prefix} — announced plainly,
    used to address applications — and one {b tunnel prefix per
    wide-area path}, each announced with the community set that pins it
    to that path. Prefixes in Tango name routes, not destinations. *)

type plan = {
  site_index : int;
  host_prefix : Tango_net.Prefix.t;
  tunnel_prefixes : Tango_net.Prefix.t list;
}

val carve : block:Tango_net.Prefix.t -> site_index:int -> path_count:int -> plan
(** [carve ~block ~site_index ~path_count] — subnets are /48s when
    [block] is the default /32-style IPv6 block (16 extra bits are always
    used, whatever the block length). Raises [Invalid_argument] when
    [path_count > max_paths_per_site] or the block is too small. *)

val default_block : Tango_net.Prefix.t
(** [2001:db8:4000::/34] — a documentation-range stand-in for the
    institution's allocation. *)

val host_address : plan -> int64 -> Tango_net.Addr.t
(** [host_address plan i] — the i-th host in the site's host prefix. *)

val tunnel_endpoint : plan -> path:int -> Tango_net.Addr.t
(** The address a peer targets to ride path [path] toward this site
    (the ::1 of the corresponding tunnel prefix). *)
