type t = { addr : Addr.t; len : int }

let mask_v6 len =
  Ipv6.shift_left (Ipv6.lognot Ipv6.any) (128 - len)

let v addr len =
  if len < 0 || len > 128 then
    Err.invalid "Prefix.v: length %d out of range for /128 family" len;
  { addr = Ipv6.logand addr (mask_v6 len); len }

let length t = t.len

let compare a b =
  let c = Addr.compare a.addr b.addr in
  if c <> 0 then c else Int.compare a.len b.len

let equal a b = compare a b = 0

let of_string s =
  match String.index_opt s '/' with
  | None -> Error (Printf.sprintf "missing '/' in prefix %S" s)
  | Some i -> (
      let addr_part = String.sub s 0 i in
      let len_part = String.sub s (i + 1) (String.length s - i - 1) in
      match (Addr.of_string addr_part, int_of_string_opt len_part) with
      | Ok a, Some len when len >= 0 && len <= 128 -> Ok (v a len)
      | Ok _, _ -> Error (Printf.sprintf "bad prefix length in %S" s)
      | Error e, _ -> Error e)

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> Err.invalid "%s" msg

let to_string t = Printf.sprintf "%s/%d" (Addr.to_string t.addr) t.len

(* [mask_v6 len] applied one 64-bit half at a time, so the match stays
   in registers instead of building masks as Ipv6.t records: up to /64
   only the high half is masked and the network's low half must be zero;
   past /64 the high half compares whole. This runs on every probe of a
   forwarding-table scan. *)
let mem_v6 (net : Ipv6.t) (x : Ipv6.t) len =
  if len <= 64 then
    let mask = if len = 0 then 0L else Int64.shift_left Int64.minus_one (64 - len) in
    Int64.equal net.hi (Int64.logand x.hi mask) && Int64.equal net.lo 0L
  else
    Int64.equal net.hi x.hi
    && Int64.equal net.lo
         (Int64.logand x.lo (Int64.shift_left Int64.minus_one (128 - len)))

let mem t a = mem_v6 t.addr a t.len

let subsumes p q = p.len <= q.len && mem p q.addr

let overlaps p q = subsumes p q || subsumes q p

let subnet t extra i =
  if extra < 0 then Err.invalid "Prefix.subnet: negative extra bits";
  let new_len = t.len + extra in
  if new_len > 128 then
    Err.invalid "Prefix.subnet: /%d exceeds family width" new_len;
  if i < 0 || (extra < 62 && i >= 1 lsl extra) then
    Err.invalid "Prefix.subnet: index %d out of range for %d extra bits" i extra;
  let index = Ipv6.make 0L (Int64.of_int i) in
  v (Ipv6.logor t.addr (Ipv6.shift_left index (128 - new_len))) new_len

let nth_address t i =
  if Int64.compare i 0L < 0 then Err.invalid "Prefix.nth_address: negative index";
  Ipv6.add t.addr i
