(** Fixed 64-slot packet batches — the XDP-style unit of work of the
    batched dataplane (DESIGN.md §11).

    Batching lets {!Fabric.send_batch_direct} pay its per-call overhead
    (eligibility checks, route-cache revalidation, callback closures,
    fault-hook branches) once per up-to-64 packets instead of once per
    packet. The slot array is preallocated on the first {!add}; the
    steady-state path writes in place and allocates nothing. *)

type t

val capacity : int
(** 64 — fixed, like the kernel's NAPI budget. *)

val create : unit -> t

val length : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val add : t -> Tango_net.Packet.t -> unit
(** Append a packet. Raises {!Err.Invalid} when full — callers flush on
    {!is_full}. *)

val get : t -> int -> Tango_net.Packet.t
(** The i-th packet. Raises {!Err.Invalid} outside [0, length). *)

val iter : t -> f:(Tango_net.Packet.t -> unit) -> unit

val clear : t -> unit
(** Reset the length (slots keep their last references until
    overwritten — at most one stale batch of packets stays reachable). *)

val purge : t -> unit
(** {!clear}, plus drop the stale slot references (at most one packet
    stays reachable, as the array seed) — so a minor collection right
    after finds no transient packets to promote. *)
