(** The segment-stack shim: stitched multi-hop relay routes on the wire.

    A source PoP composes its per-pair discovered paths into an explicit
    stack of (relay PoP, segment path) entries — the IXP path-stitching
    idea — and each relay consumes one entry per hop. When the next
    stacked hop is dead, the packet flips to arborescence mode
    ({!flag_arbor}) and is steered by the precomputed trees of
    {!Arbor} instead; the [tree] field records which one.

    Encode/decode run on the relay hot path and are [\[@hot\]]-clean:
    they reuse the {!Tango_net.Wire} cursor primitives and touch no
    heap. The [stack] record is a preallocated scratch value, created
    once per relay world and reused for every frame. *)

type stack = {
  mutable flags : int;
  mutable tree : int;
  mutable top : int;  (** Index of the next unconsumed stack entry. *)
  mutable src : int;
  mutable dst : int;
  mutable flow : int;
  mutable seq : int;
  mutable count : int;
  mutable hop_budget : int;  (** TTL against routing loops. *)
  mutable digest : int;
      (** Attestation chain ({!Attest}); meaningful iff {!flag_attest}
          is set in [flags]. *)
  hops : int array;  (** [max_segments] slots; entries [0..count-1] live. *)
  seg_path : int array;
}

val flag_arbor : int

val flag_attest : int
(** When set, an 8-byte per-hop digest chain follows the
    stack entries. Attestation-off frames are byte-identical to the
    pre-attest wire format. *)

val max_segments : int
(** 15 stack entries — routes beyond that fall back to pure
    arborescence steering from the source. *)

val frame_bytes : stack -> int
(** Full encoded size of a [count]-entry stack [st]: [18 + 4*count],
    plus the 8-byte attest field when {!flag_attest} is set. *)

val max_header_bytes : int

val create_stack : unit -> stack
(** Fresh zeroed scratch stack (the only allocating operation here). *)

val encode_into : buf:Bytes.t -> off:int -> stack -> int
(** Write the header at [off]; returns bytes written. Raises
    {!Err.Invalid} when the buffer is too short or [count] exceeds
    {!max_segments}. *)

val decode_into : buf:Bytes.t -> off:int -> len:int -> stack -> bool
(** Parse a header into the scratch stack. Returns [false] on garbage
    (bad version, impossible count/top, short buffer) — relays drop
    malformed frames, they never raise. *)

val patch_cursor : buf:Bytes.t -> off:int -> stack -> unit
(** Write back only the per-hop mutable fields (flags, tree, top, hop
    budget, and the attest digest when {!flag_attest} is set) of an
    already-encoded header — the relay fast path. The attest flag must
    not be {e set} by a patch on a frame encoded without it: the buffer
    has no room for the field. *)
