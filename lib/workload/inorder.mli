(** In-order delivery model for application-level impact (§5).

    The paper argues that even when a path still delivers {e some}
    packets at the minimum OWD during an instability episode, TCP-style
    in-order delivery turns a single delayed packet into head-of-line
    blocking for everything behind it. This module replays a stream of
    (sequence, network-arrival-time) pairs through an in-order release
    buffer and reports which packets each arrival releases to the
    application.

    Buffered packets sit in a flat ring indexed by distance from the
    next expected sequence number, so memory is proportional to the
    widest gap seen, not to the number of packets; nothing is kept for
    a packet once it has been released. *)

type t

val create : unit -> t

val arrive : t -> seq:int -> time:float -> int
(** Record a packet's network arrival at [time]; returns how many
    packets this arrival released to the application — the contiguous
    run now deliverable, starting at the sequence number that was next
    expected. Every packet of the run is released at [time], the
    arrival time of the packet that unblocked it. Duplicate or
    already-released sequence numbers release nothing. Raises
    [Invalid_argument] on a NaN [time]. *)

val run_arrival : t -> int -> float
(** [run_arrival t i], for [0 <= i < n] where [n] is what the last
    {!arrive} returned: the network arrival time of the run's [i]-th
    packet (in sequence order). Its head-of-line extra — the time it
    spent blocked behind the missing packet — is the release time minus
    this. Raises [Invalid_argument] outside the last run. *)

