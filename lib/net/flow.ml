type t = {
  src : Addr.t;
  dst : Addr.t;
  proto : int;
  src_port : int;
  dst_port : int;
}

let check_port name p =
  if p < 0 || p > 0xFFFF then Err.invalid "Flow.v: %s port %d out of range" name p

let v ~src ~dst ~proto ~src_port ~dst_port =
  check_port "source" src_port;
  check_port "destination" dst_port;
  if proto < 0 || proto > 255 then
    Err.invalid "Flow.v: protocol %d out of range" proto;
  { src; dst; proto; src_port; dst_port }

(* FNV-1a, folding every byte of both addresses, the ports, the protocol
   and the salt. Stable across runs: ECMP decisions must be reproducible.
   The state is threaded through inlined steps rather than held in a ref
   that closures capture, so the fold runs on unboxed int64s and
   allocates nothing. *)
let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let[@inline] feed_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xFF))) fnv_prime

(* The eight bytes of [x], least significant first. *)
let[@inline] feed_int64 h x =
  let h = feed_byte h (Int64.to_int x) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical x 8)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical x 16)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical x 24)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical x 32)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical x 40)) in
  let h = feed_byte h (Int64.to_int (Int64.shift_right_logical x 48)) in
  feed_byte h (Int64.to_int (Int64.shift_right_logical x 56))

(* High word, then low word: ECMP lanes and every fingerprint depend on
   this order. *)
let[@inline] feed_addr h (a : Addr.t) = feed_int64 (feed_int64 h a.Ipv6.hi) a.Ipv6.lo

let hash_fields ~salt ~src ~dst ~proto ~src_port ~dst_port =
  let h = feed_addr (feed_addr fnv_offset src) dst in
  let h = feed_byte h proto in
  let h = feed_byte h src_port in
  let h = feed_byte h (src_port lsr 8) in
  let h = feed_byte h dst_port in
  let h = feed_byte h (dst_port lsr 8) in
  let h = feed_int64 h (Int64.of_int salt) in
  (* Keep 62 bits so the result is a non-negative native int. *)
  Int64.to_int (Int64.shift_right_logical h 2)

let hash_5tuple ?(salt = 0) t =
  hash_fields ~salt ~src:t.src ~dst:t.dst ~proto:t.proto ~src_port:t.src_port
    ~dst_port:t.dst_port
