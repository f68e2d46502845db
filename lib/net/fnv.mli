(** FNV-1a over OCaml words: the one fold step behind every digest in
    the tree (mesh gossip and attestation chains, relay fingerprints,
    lane record hashes, load-plan fingerprints).
    Each caller keeps its own seed and, where its digest must stay
    non-negative, masks each step with [land max_int]. [Flow.hash_5tuple]
    is separate: it folds bytes in 64-bit [Int64] arithmetic, which this
    63-bit step does not reproduce. *)

val digest_seed : int
(** Offset basis shared by the mesh digests and fingerprints. *)

val mix : int -> int -> int
(** [mix h v] absorbs [v] into [h]: [(h lxor v) * 0x100000001b3]. *)
