type origin = Igp | Egp | Incomplete

let origin_rank = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

type t = {
  prefix : Tango_net.Prefix.t;
  path : As_path.t;
  next_hop : int;
  learned_from : int option;
  local_pref : int;
  neighbor_weight : int;
  origin : origin;
  communities : Community.Set.t;
}

let make ~prefix ~path ~next_hop ?learned_from ?(local_pref = 100) ?(origin = Igp)
    ?(communities = Community.Set.empty) () =
  {
    prefix;
    path;
    next_hop;
    learned_from;
    local_pref;
    neighbor_weight = 0;
    origin;
    communities;
  }

let local t = Option.is_none t.learned_from

let has_community t c = Community.Set.mem c t.communities
