(** Transport 5-tuples, the unit of ECMP hashing in the core. *)

type t = {
  src : Addr.t;
  dst : Addr.t;
  proto : int;  (** IP protocol number, e.g. 6 TCP, 17 UDP. *)
  src_port : int;
  dst_port : int;
}

val v :
  src:Addr.t -> dst:Addr.t -> proto:int -> src_port:int -> dst_port:int -> t

val hash_5tuple : ?salt:int -> t -> int
(** Deterministic FNV-1a over the 5-tuple, non-negative. Core routers use
    [salt] to decorrelate hash decisions at different hops. *)

val hash_fields :
  salt:int -> src:Addr.t -> dst:Addr.t -> proto:int -> src_port:int -> dst_port:int -> int
(** [hash_5tuple] over loose fields, for a caller that would otherwise
    build a [t] only to hash it. *)
