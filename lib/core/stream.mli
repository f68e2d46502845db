(** A reliable in-order byte stream over a Tango pair — the transport
    model behind §5's claim that a single delayed packet stalls a TCP
    application ("future application packets will be delivered
    out-of-order, resulting in a reduction in TCP throughput").

    The sender keeps a fixed window of segments in flight, retransmits
    go-back-N on an RTO estimated Jacobson-style (SRTT + 4·RTTVAR), and
    the receiver delivers in order and returns cumulative ACKs. Segments
    ride the PoPs' stream port: path selection follows the sender PoP's
    live policy (or a pinned tunnel), so the same transport can be
    compared across routing policies. *)

type t

val start :
  sender:Pop.t ->
  receiver:Pop.t ->
  ?route:[ `Policy | `Path of int ] ->
  total_segments:int ->
  unit ->
  t
(** Begin transferring [total_segments] segments from [sender] to
    [receiver] (both must already be wired), routed by [`Policy]
    unless [route] pins a path. The window is 32 segments of 1200 B
    and the RTO floor is 50 ms. The transfer progresses as the
    simulation runs. Raises [Invalid_argument] when [total_segments]
    is not positive. *)

val finished : t -> bool
(** All segments delivered in order and acknowledged. *)

val retransmissions : t -> int
val timeouts : t -> int

val goodput_mbps : t -> float
(** In-order delivered payload divided by elapsed transfer time (from
    first send to completion, or to "now" while running). [0.] before
    any delivery. *)

val max_stall_s : t -> float
(** Longest gap between consecutive in-order deliveries at the receiver
    — §5's head-of-line figure of merit for the application. *)
