(** Deterministic mesh topologies in CSR (compressed sparse row) form.

    PoPs are dense integer ids; every directed edge is a {e slot}, and
    per-edge state across the library (liveness bits, hello
    timestamps) lives in flat arrays indexed by slot. Generation is a
    pure function of [(pops, degree, seed)]: a 60x60 ms-scale
    coordinate plane (latency ~ distance), a ring for guaranteed
    connectivity, nearest-neighbor chords up to [degree], and the
    plane's four quadrants as regions for partition faults. *)

type t

val generate : ?degree:int -> pops:int -> seed:int -> unit -> t
(** Default [degree] 4. Raises {!Err.Invalid} for [pops < 2],
    [pops > 4096] or [degree < 2]. *)

val pops : t -> int

val regions : int
(** Number of regions: 4, one per quadrant of the plane. *)

val region : t -> int -> int
(** Region id of a PoP; raises {!Err.Invalid} out of range. *)

val edges : t -> int
(** Number of directed slots (twice the undirected edge count). *)

val slot_base : t -> int -> int
(** First slot of a PoP's CSR row; the row spans
    [\[slot_base t i, slot_base t i + degree t i)]. *)

val degree : t -> int -> int

val slot_dst : t -> int -> int
(** Neighbor PoP on a slot. *)

val slot_lat_ms : t -> int -> float
(** One-way latency of a slot, milliseconds (symmetric). *)

val slot_paths : t -> int -> int
(** Per-pair discovery diversity on the segment: how many distinct
    provider paths the endpoint pair discovered (2-4). *)

val slot_rev : t -> int -> int
(** The reverse slot: for slot (u,v), the slot of (v,u). *)

val slot : t -> src:int -> dst:int -> int
(** Slot of the directed edge [src]->[dst], or [-1] when not adjacent.
    O(log degree), allocation-free. *)
