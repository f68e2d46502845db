(** ECMP lane selection inside transit networks.

    Real backbones spread flows over parallel internal paths by hashing
    the 5-tuple. Tango's tunnels pin the outer 5-tuple precisely so that
    all packets of a tunnel ride one lane; raw host traffic hashes per
    flow and lands on different lanes — which is why non-tunneled
    measurement conflates several paths into one noisy series (§3,
    ablated in experiment E7). *)

type lanes = float array
(** Additional per-lane delay offsets in ms; index 0 is the fastest. *)

val uniform_lanes : count:int -> spread_ms:float -> lanes
(** [count] lanes at offsets [0, spread, 2*spread, ...]. *)

val lane_delay_ms : lanes -> hash:int -> float
(** Delay offset of the lane a flow takes at a node, given the flow's
    salted hash (e.g. {!Tango_net.Packet.forwarding_hash}; the salt
    decorrelates nodes): lane [hash mod count], the same lane for every
    packet of the flow. *)
