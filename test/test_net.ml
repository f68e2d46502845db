(* Tests for the network substrate: addresses, prefixes, flows, packets,
   and the byte-level tunnel header codec. *)

open Tango_net

(* ------------------------------------------------------------------ *)
(* IPv4 text                                                           *)

(* Every address is IPv6: dotted quads, well-formed or not, are
   rejected as addresses and as prefixes. *)
let test_ipv4_invalid () =
  List.iter
    (fun s ->
      match Addr.of_string s with
      | Ok _ -> Alcotest.failf "accepted IPv4 text %S" s
      | Error e ->
          Alcotest.(check string) s (Printf.sprintf "not an IP address: %S" s) e)
    [
      "192.0.2.1";
      "0.0.0.0";
      "255.255.255.255";
      "256.1.1.1";
      "1.2.3";
      "1.2.3.4.5";
      "a.b.c.d";
      "";
      "1..2.3";
      "-1.2.3.4";
    ];
  List.iter
    (fun s ->
      match Prefix.of_string s with
      | Ok _ -> Alcotest.failf "accepted IPv4 prefix %S" s
      | Error _ -> ())
    [ "10.0.0.0/8"; "0.0.0.0/0"; "192.0.2.1/32" ]

(* ------------------------------------------------------------------ *)
(* IPv6                                                                *)

let test_ipv6_roundtrip_canonical () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Ipv6.to_string (Ipv6.of_string_exn s)))
    [
      "::";
      "::1";
      "1::";
      "2001:db8::";
      "2001:db8::1";
      "fe80::1:2:3:4";
      "1:2:3:4:5:6:7:8";
      "2001:db8:0:1:1:1:1:1";
    ]

let test_ipv6_parse_forms () =
  let check input expect =
    Alcotest.(check string) input expect (Ipv6.to_string (Ipv6.of_string_exn input))
  in
  check "0:0:0:0:0:0:0:0" "::";
  check "0000:0000:0000:0000:0000:0000:0000:0001" "::1";
  check "2001:0DB8:0:0:0:0:0:1" "2001:db8::1";
  check "2001:db8:0:0:1:0:0:1" "2001:db8::1:0:0:1"

let test_ipv6_invalid () =
  List.iter
    (fun s ->
      match Ipv6.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid %S" s
      | Error _ -> ())
    [
      "";
      ":::";
      "1::2::3";
      "1:2:3:4:5:6:7:8:9";
      "1:2:3:4:5:6:7";
      "12345::";
      "g::1";
      "1.2.3.4";
    ]

(* Eight groups in, the same eight out: parsing packs the groups into
   the two words, printing unpacks them. *)
let test_ipv6_groups_roundtrip () =
  let a = Ipv6.of_string_exn "2001:db8:0:42:0:0:dead:beef" in
  Alcotest.(check int64) "high word" 0x20010db800000042L (Ipv6.hi a);
  Alcotest.(check int64) "low word" 0x00000000deadbeefL (Ipv6.lo a);
  Alcotest.(check string) "groups" "2001:db8:0:42::dead:beef" (Ipv6.to_string a)

let test_ipv6_add_carry () =
  let a = Ipv6.make 0L Int64.minus_one in
  let b = Ipv6.add a 1L in
  Alcotest.(check int64) "hi carried" 1L (Ipv6.hi b);
  Alcotest.(check int64) "lo wrapped" 0L (Ipv6.lo b)

let test_ipv6_shifts () =
  let one = Ipv6.make 0L 1L in
  let shifted = Ipv6.shift_left one 64 in
  Alcotest.(check int64) "into hi" 1L (Ipv6.hi shifted);
  Alcotest.(check int64) "out of lo" 0L (Ipv6.lo shifted);
  let wide = Ipv6.shift_left one 127 in
  Alcotest.(check int64) "top bit" Int64.min_int (Ipv6.hi wide)

let ipv6_qcheck_roundtrip =
  QCheck.Test.make ~name:"ipv6 print/parse roundtrip" ~count:500
    QCheck.(pair (pair int64 int64) unit)
    (fun ((hi, lo), ()) ->
      let a = Ipv6.make hi lo in
      Ipv6.equal a (Ipv6.of_string_exn (Ipv6.to_string a)))

(* ------------------------------------------------------------------ *)
(* Prefix                                                              *)

let test_prefix_parse () =
  let p = Prefix.of_string_exn "2001:db8::/32" in
  Alcotest.(check int) "length" 32 (Prefix.length p);
  Alcotest.(check string) "printed" "2001:db8::/32" (Prefix.to_string p)

let test_prefix_canonical () =
  let a = Prefix.of_string_exn "2001:db8::ffff/32" in
  let b = Prefix.of_string_exn "2001:db8::/32" in
  Alcotest.(check bool) "host bits dropped" true (Prefix.equal a b)

(* The IPv4 space as IPv6 carries it, IPv4-mapped (::ffff:0:0/96):
   10.0.0.0/8 is ::ffff:a00:0/104, a mask that ends in the low word. *)
let test_prefix_mem () =
  let p = Prefix.of_string_exn "::ffff:a00:0/104" in
  Alcotest.(check bool) "inside" true (Prefix.mem p (Addr.of_string_exn "::ffff:ac8:304"));
  Alcotest.(check bool) "outside" false (Prefix.mem p (Addr.of_string_exn "::ffff:b00:1"));
  Alcotest.(check bool) "same low bits, unmapped" false
    (Prefix.mem p (Addr.of_string_exn "::a00:1"))

let test_prefix_mem_v6 () =
  let p = Prefix.of_string_exn "2001:db8:1234::/48" in
  Alcotest.(check bool) "inside" true
    (Prefix.mem p (Addr.of_string_exn "2001:db8:1234:ffff::1"));
  Alcotest.(check bool) "outside" false
    (Prefix.mem p (Addr.of_string_exn "2001:db8:1235::1"))

let test_prefix_zero_length () =
  let p = Prefix.of_string_exn "::/0" in
  Alcotest.(check bool) "default route matches all" true
    (Prefix.mem p (Addr.of_string_exn "ff02::7"))

let test_prefix_subsumes () =
  let big = Prefix.of_string_exn "2001:db8::/32" in
  let small = Prefix.of_string_exn "2001:db8:1::/48" in
  Alcotest.(check bool) "subsumes" true (Prefix.subsumes big small);
  Alcotest.(check bool) "not reverse" false (Prefix.subsumes small big);
  Alcotest.(check bool) "overlaps" true (Prefix.overlaps small big)

let test_prefix_subnet () =
  let p = Prefix.of_string_exn "2001:db8::/32" in
  let s0 = Prefix.subnet p 16 0 in
  let s5 = Prefix.subnet p 16 5 in
  Alcotest.(check string) "first /48" "2001:db8::/48" (Prefix.to_string s0);
  Alcotest.(check string) "sixth /48" "2001:db8:5::/48" (Prefix.to_string s5);
  Alcotest.(check bool) "parent holds child" true (Prefix.subsumes p s5)

(* 10.0.0.0/8 split into /16s, IPv4-mapped: the index lands in the low
   word. *)
let test_prefix_subnet_v4 () =
  let p = Prefix.of_string_exn "::ffff:a00:0/104" in
  Alcotest.(check string) "subnet" "::ffff:a03:0/112"
    (Prefix.to_string (Prefix.subnet p 8 3))

let test_prefix_nth_address () =
  let p = Prefix.of_string_exn "2001:db8:5::/48" in
  Alcotest.(check string) "addr 1" "2001:db8:5::1"
    (Addr.to_string (Prefix.nth_address p 1L))

let test_prefix_invalid () =
  List.iter
    (fun s ->
      match Prefix.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid %S" s
      | Error _ -> ())
    [ "2001:db8::"; "::/200"; "2001:db8::/129"; "x/8"; "2001:db8::/-1" ]

(* [Prefix.mem] as it stood before it stopped building masks as
   Ipv6.t records, verbatim apart from reading the prefix through its
   accessors (its network address is its 0th address) and its IPv4
   branch, which went with IPv4. *)
let old_mask_v6 len =
  Ipv6.shift_left (Ipv6.lognot Ipv6.any) (128 - len)

let old_mem p x =
  Ipv6.equal (Prefix.nth_address p 0L) (Ipv6.logand x (old_mask_v6 (Prefix.length p)))

(* Every prefix length over a random base address, probed on both sides
   of the mask boundary: the base itself, the base with each single bit
   flipped (a flip at or past the length stays inside, one before it
   leaves) and the bitwise complement. *)
let prefix_qcheck_mem_matches_old =
  let flip_v6 hi lo i =
    if i < 64 then Ipv6.make (Int64.logxor hi (Int64.shift_left 1L (63 - i))) lo
    else Ipv6.make hi (Int64.logxor lo (Int64.shift_left 1L (127 - i)))
  in
  QCheck.Test.make ~name:"mem matches the old mask definition at every length"
    ~count:200
    QCheck.(pair int64 int64)
    (fun (hi, lo) ->
      let base = Ipv6.make hi lo in
      let probes =
        base :: Ipv6.make (Int64.lognot hi) (Int64.lognot lo) :: List.init 128 (flip_v6 hi lo)
      in
      List.for_all
        (fun len ->
          let p = Prefix.of_string_exn (Addr.to_string base ^ "/" ^ string_of_int len) in
          List.for_all (fun a -> Prefix.mem p a = old_mem p a) probes
          && Prefix.mem p base
          && (len = 0 || not (Prefix.mem p (flip_v6 hi lo (len - 1)))))
        (List.init 129 Fun.id))

let prefix_qcheck_subnet_disjoint =
  QCheck.Test.make ~name:"sibling subnets are disjoint" ~count:200
    QCheck.(pair (int_bound 14) (int_bound 14))
    (fun (i, j) ->
      QCheck.assume (i <> j);
      let p = Prefix.of_string_exn "2001:db8::/32" in
      let a = Prefix.subnet p 4 (i mod 16) and b = Prefix.subnet p 4 (j mod 16) in
      i mod 16 = j mod 16 || not (Prefix.overlaps a b))

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)

let flow_a () =
  Flow.v
    ~src:(Addr.of_string_exn "2001:db8::1")
    ~dst:(Addr.of_string_exn "2001:db8::2")
    ~proto:17 ~src_port:1234 ~dst_port:4789

let test_flow_hash_deterministic () =
  let f = flow_a () in
  Alcotest.(check int) "stable" (Flow.hash_5tuple f) (Flow.hash_5tuple f);
  Alcotest.(check bool) "salt changes hash" true
    (Flow.hash_5tuple ~salt:1 f <> Flow.hash_5tuple ~salt:2 f)

let test_flow_hash_sensitivity () =
  let f = flow_a () in
  let g = { f with Flow.src_port = f.Flow.src_port + 1 } in
  Alcotest.(check bool) "port matters" true
    (Flow.hash_5tuple f <> Flow.hash_5tuple g)

(* [Flow.hash_5tuple] as it stood before it was rewritten to fold
   without closures or an [Int64 ref], verbatim apart from its IPv4
   branch, which went with IPv4. It feeds ECMP, the flow caches, lane
   sharding and experiment fingerprints, so the rewrite must match it
   bit for bit. *)
let old_hash_5tuple ?(salt = 0) (t : Flow.t) =
  let fnv_prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  let feed_byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xFF))) fnv_prime
  in
  let feed_int64 x =
    for shift = 0 to 7 do
      feed_byte (Int64.to_int (Int64.shift_right_logical x (shift * 8)))
    done
  in
  let feed_addr a =
    feed_int64 (Ipv6.hi a);
    feed_int64 (Ipv6.lo a)
  in
  feed_addr t.src;
  feed_addr t.dst;
  feed_byte t.proto;
  feed_byte t.src_port;
  feed_byte (t.src_port lsr 8);
  feed_byte t.dst_port;
  feed_byte (t.dst_port lsr 8);
  feed_int64 (Int64.of_int salt);
  (* Keep 62 bits so the result is a non-negative native int. *)
  Int64.to_int (Int64.shift_right_logical !h 2)

(* Literal values, so the two copies above cannot drift together. They
   cover address words with the high bit set, the all-zero and all-ones
   addresses, the port and protocol extremes, and salts that are
   negative, past 2^31 and at both ends of the native int range. *)
let test_flow_hash_pinned () =
  let v6 src dst ~proto ~src_port ~dst_port =
    Flow.v ~src:(Addr.of_string_exn src) ~dst:(Addr.of_string_exn dst) ~proto
      ~src_port ~dst_port
  in
  let check name expect ?salt f =
    Alcotest.(check int) name expect (Flow.hash_5tuple ?salt f)
  in
  check "v6, no salt" 801167668938055164 (flow_a ());
  check "v6, salt -1" 3780651719344337434 ~salt:(-1) (flow_a ());
  check "v6, salt 2^31+5" 2016316565146988101 ~salt:((1 lsl 31) + 5) (flow_a ());
  check "v6, high-bit dst words" 201038394213885318
    (v6 "2001:db8::1" "8000::8000:0:0:7" ~proto:6 ~src_port:80 ~dst_port:65535);
  check "v6, zero ports, salt max_int" 1195129448620076045 ~salt:max_int
    (v6 "::" "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff" ~proto:0 ~src_port:0 ~dst_port:0);
  check "v6, max ports, salt min_int" 1594105753145416854 ~salt:min_int
    (v6 "::" "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff" ~proto:255 ~src_port:65535
       ~dst_port:65535)

let gen_addr = QCheck.Gen.(map2 Ipv6.make ui64 ui64)

let gen_salt =
  QCheck.Gen.(
    oneof
      [
        int;
        int_range (-1000) 1000;
        map (fun x -> (1 lsl 31) + x) nat;
        map (fun x -> -(1 lsl 31) - x) nat;
        oneofl [ 0; -1; min_int; max_int; 1 lsl 31; (1 lsl 32) - 1 ];
      ])

let flow_qcheck_hash_matches_old =
  let gen =
    QCheck.Gen.(
      map
        (fun ((src, dst), (proto, src_port, dst_port), salt) ->
          (Flow.v ~src ~dst ~proto ~src_port ~dst_port, salt))
        (triple (pair gen_addr gen_addr)
           (triple (int_bound 255) (int_bound 0xFFFF) (int_bound 0xFFFF))
           gen_salt))
  in
  QCheck.Test.make ~name:"hash_5tuple is bit-identical to the old fold"
    ~count:100_000 (QCheck.make gen) (fun (f, salt) ->
      Flow.hash_5tuple ~salt f = old_hash_5tuple ~salt f
      && Flow.hash_5tuple f = old_hash_5tuple f)

let test_flow_invalid () =
  Alcotest.(check bool) "bad port raises" true
    (try
       ignore
         (Flow.v
            ~src:(Addr.of_string_exn "::1")
            ~dst:(Addr.of_string_exn "::2")
            ~proto:6 ~src_port:70000 ~dst_port:80);
       false
     with Err.Invalid _ -> true)

(* ------------------------------------------------------------------ *)
(* Packet                                                              *)

let sample_encap () =
  {
    Packet.outer_src = Addr.of_string_exn "2001:db8:100::1";
    outer_dst = Addr.of_string_exn "2001:db8:200::1";
    udp_src = 40000;
    udp_dst = 4789;
    tango = { Packet.timestamp_ns = 123456789L; seq = 7L; path_id = 2; flags = 0 };
  }

let test_packet_encap_cycle () =
  let p = Packet.create ~id:1 ~flow:(flow_a ()) ~payload_bytes:100 ~created_at:0.0 () in
  Alcotest.(check bool) "starts raw" false (Packet.is_encapsulated p);
  let base = Packet.wire_size p in
  Packet.encapsulate p (sample_encap ());
  Alcotest.(check bool) "now tunneled" true (Packet.is_encapsulated p);
  Alcotest.(check int) "tunnel adds 68 bytes" (base + 68) (Packet.wire_size p);
  let e = Packet.decapsulate p in
  Alcotest.(check int) "seq preserved" 7 (Int64.to_int e.Packet.tango.Packet.seq);
  Alcotest.(check int) "size restored" base (Packet.wire_size p)

let test_packet_double_encap_rejected () =
  let p = Packet.create ~id:1 ~flow:(flow_a ()) ~payload_bytes:0 ~created_at:0.0 () in
  Packet.encapsulate p (sample_encap ());
  Alcotest.(check bool) "second encap raises" true
    (try
       Packet.encapsulate p (sample_encap ());
       false
     with Err.Invalid _ -> true)

(* The 5-tuple the core sees: the inner flow on a raw packet, the outer
   UDP flow (protocol 17) once encapsulated. *)
let test_packet_forwarding_flow () =
  let p = Packet.create ~id:1 ~flow:(flow_a ()) ~payload_bytes:0 ~created_at:0.0 () in
  List.iter
    (fun salt ->
      Alcotest.(check int) "raw: inner flow"
        (Flow.hash_5tuple ~salt (flow_a ())) (Packet.forwarding_hash ~salt p))
    [ 0; 1; 7; 0x12345 ];
  Alcotest.(check string) "raw: inner dst" "2001:db8::2"
    (Addr.to_string (Packet.forwarding_dst p));
  let e = sample_encap () in
  Packet.encapsulate p e;
  Alcotest.(check string) "outer dst drives forwarding" "2001:db8:200::1"
    (Addr.to_string (Packet.forwarding_dst p));
  let f =
    Flow.v ~src:e.Packet.outer_src ~dst:e.Packet.outer_dst ~proto:17 ~src_port:e.Packet.udp_src
      ~dst_port:e.Packet.udp_dst
  in
  List.iter
    (fun salt ->
      Alcotest.(check int) "forwarding_hash hashes the outer flow"
        (Flow.hash_5tuple ~salt f) (Packet.forwarding_hash ~salt p))
    [ 0; 1; 7; 0x12345 ]

let test_packet_decapsulate_raw () =
  let p = Packet.create ~id:1 ~flow:(flow_a ()) ~payload_bytes:0 ~created_at:0.0 () in
  Alcotest.(check bool) "raises on raw" true
    (try ignore (Packet.decapsulate p); false with Err.Invalid _ -> true)

let test_prefix_nth_negative () =
  let p = Prefix.of_string_exn "2001:db8::/32" in
  Alcotest.(check bool) "negative index" true
    (try ignore (Prefix.nth_address p (-1L)); false with Err.Invalid _ -> true)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let test_wire_roundtrip () =
  let payload = Bytes.of_string "hello tango, this is the inner packet" in
  let tango = { Packet.timestamp_ns = 998877665544332211L; seq = 42L; path_id = 3; flags = 1 } in
  let src = Ipv6.of_string_exn "2001:db8:100::1"
  and dst = Ipv6.of_string_exn "2001:db8:200::beef" in
  let frame =
    Wire.encode_tunnel ~outer_src:src ~outer_dst:dst ~udp_src:40000
      ~udp_dst:4789 ~tango payload
  in
  match Wire.decode_tunnel frame with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok (ipv6, udp, tango', payload') ->
      Alcotest.(check bool) "src" true (Ipv6.equal src ipv6.Wire.src);
      Alcotest.(check bool) "dst" true (Ipv6.equal dst ipv6.Wire.dst);
      Alcotest.(check int) "udp src" 40000 udp.Wire.src_port;
      Alcotest.(check int) "udp dst" 4789 udp.Wire.dst_port;
      Alcotest.(check int64) "timestamp" tango.Packet.timestamp_ns tango'.Packet.timestamp_ns;
      Alcotest.(check int64) "seq" 42L tango'.Packet.seq;
      Alcotest.(check int) "path id" 3 tango'.Packet.path_id;
      Alcotest.(check string) "payload" (Bytes.to_string payload) (Bytes.to_string payload')

let test_wire_corruption_detected () =
  let payload = Bytes.of_string "payload" in
  let tango = { Packet.timestamp_ns = 1L; seq = 2L; path_id = 0; flags = 0 } in
  let frame =
    Wire.encode_tunnel
      ~outer_src:(Ipv6.of_string_exn "::1")
      ~outer_dst:(Ipv6.of_string_exn "::2")
      ~udp_src:1 ~udp_dst:2 ~tango payload
  in
  (* Flip a bit in the payload: checksum must catch it. *)
  let off = Bytes.length frame - 3 in
  Bytes.set_uint8 frame off (Bytes.get_uint8 frame off lxor 0x40);
  (match Wire.decode_tunnel frame with
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error _ -> ())

let test_wire_truncated () =
  match Wire.decode_tunnel (Bytes.create 10) with
  | Ok _ -> Alcotest.fail "accepted truncated frame"
  | Error _ -> ()

let test_wire_wrong_version () =
  let buf = Bytes.make 80 '\000' in
  Bytes.set_uint8 buf 0 0x45;
  match Wire.decode_tunnel buf with
  | Ok _ -> Alcotest.fail "accepted IPv4 version"
  | Error _ -> ()

let test_wire_checksum_rfc1071 () =
  (* Worked example from RFC 1071: words 0x0001 0xf203 0xf4f5 0xf6f7. *)
  let buf = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "checksum" (lnot 0xddf2 land 0xFFFF)
    (Wire.internet_checksum buf)

(* ------------------------------------------------------------------ *)
(* Siphash + authenticated telemetry                                   *)

let reference_key = Siphash.key 0x0706050403020100L 0x0f0e0d0c0b0a0908L

let test_siphash_reference_vectors () =
  (* Canonical SipHash-2-4 vectors (Aumasson & Bernstein reference
     implementation): key 00..0f, input = first N bytes of 00,01,02,... *)
  let expect =
    [
      (0, 0x726fdb47dd0e0e31L);
      (1, 0x74f839c593dc67fdL);
      (2, 0x0d6c8009d9a94f5aL);
      (7, 0xab0200f58b01d137L);
      (8, 0x93f5f5799a932462L);
      (15, 0xa129ca6149be45e5L);
    ]
  in
  List.iter
    (fun (n, want) ->
      let input = Bytes.init n Char.chr in
      Alcotest.(check int64) (Printf.sprintf "len %d" n) want
        (Siphash.mac reference_key input))
    expect

let test_siphash_key_sensitivity () =
  let other = Siphash.key 1L 2L in
  let input = Bytes.of_string "tango telemetry" in
  Alcotest.(check bool) "different keys differ" false
    (Int64.equal (Siphash.mac reference_key input) (Siphash.mac other input))

let test_siphash_key_of_string () =
  let k =
    Siphash.key_of_string
      "\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"
  in
  Alcotest.(check int64) "matches reference key" 0x726fdb47dd0e0e31L
    (Siphash.mac k Bytes.empty);
  Alcotest.(check bool) "wrong length rejected" true
    (try ignore (Siphash.key_of_string "short"); false
     with Err.Invalid _ -> true)

let auth_frame () =
  Wire.encode_tunnel ~auth_key:reference_key
    ~outer_src:(Ipv6.of_string_exn "2001:db8::1")
    ~outer_dst:(Ipv6.of_string_exn "2001:db8::2")
    ~udp_src:40001 ~udp_dst:4789
    ~tango:{ Packet.timestamp_ns = 55L; seq = 9L; path_id = 1; flags = 0 }
    (Bytes.of_string "measurement payload")

(* What an on-path attacker can always do: fix up the (keyless) UDP
   checksum after tampering. *)
let refresh_checksum frame =
  let read_u64 off =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (Bytes.get_uint8 frame (off + i)))
    done;
    !v
  in
  let src = Ipv6.make (read_u64 8) (read_u64 16) in
  let dst = Ipv6.make (read_u64 24) (read_u64 32) in
  let udp_len = Bytes.length frame - 40 in
  let udp = Bytes.sub frame 40 udp_len in
  Bytes.set_uint8 udp 6 0;
  Bytes.set_uint8 udp 7 0;
  let sum = Wire.udp_checksum ~src ~dst ~udp in
  Bytes.set_uint8 frame 46 (sum lsr 8);
  Bytes.set_uint8 frame 47 (sum land 0xFF)

let test_wire_auth_roundtrip () =
  match Wire.decode_tunnel ~auth_key:reference_key (auth_frame ()) with
  | Ok (_, _, tango, payload) ->
      Alcotest.(check int64) "timestamp" 55L tango.Packet.timestamp_ns;
      Alcotest.(check bool) "auth flag set on wire" true
        (tango.Packet.flags land 0x0001 <> 0);
      Alcotest.(check string) "payload" "measurement payload" (Bytes.to_string payload)
  | Error e -> Alcotest.failf "auth roundtrip failed: %s" e

let test_wire_auth_detects_timestamp_forgery () =
  (* The attacker rewrites the embedded timestamp to fake a faster path
     and repairs the checksum — but cannot recompute the keyed tag. *)
  let frame = auth_frame () in
  Bytes.set_uint8 frame 50 (Bytes.get_uint8 frame 50 lxor 0x80);
  refresh_checksum frame;
  match Wire.decode_tunnel ~auth_key:reference_key frame with
  | Ok _ -> Alcotest.fail "forged timestamp accepted"
  | Error e -> Alcotest.(check string) "tag mismatch" "authentication tag mismatch" e

let test_wire_auth_path_rebind_rejected () =
  (* Splicing a validly-tagged shim onto a different tunnel destination
     (path confusion) also fails: the outer addresses are part of the
     authenticated message. *)
  let frame = auth_frame () in
  Bytes.set_uint8 frame 39 0x42;
  refresh_checksum frame;
  match Wire.decode_tunnel ~auth_key:reference_key frame with
  | Ok _ -> Alcotest.fail "path rebind accepted"
  | Error e -> Alcotest.(check string) "tag mismatch" "authentication tag mismatch" e

let test_wire_auth_downgrade_rejected () =
  (* Stripping authentication must not work when the receiver expects
     it, and an authenticated frame needs a key to be read at all. *)
  let plain =
    Wire.encode_tunnel
      ~outer_src:(Ipv6.of_string_exn "2001:db8::1")
      ~outer_dst:(Ipv6.of_string_exn "2001:db8::2")
      ~udp_src:40001 ~udp_dst:4789
      ~tango:{ Packet.timestamp_ns = 55L; seq = 9L; path_id = 1; flags = 0 }
      (Bytes.of_string "x")
  in
  (match Wire.decode_tunnel ~auth_key:reference_key plain with
  | Ok _ -> Alcotest.fail "downgrade accepted"
  | Error _ -> ());
  match Wire.decode_tunnel (auth_frame ()) with
  | Ok _ -> Alcotest.fail "authenticated frame read without key"
  | Error _ -> ()

let wire_qcheck_auth_roundtrip =
  QCheck.Test.make ~name:"authenticated wire roundtrip" ~count:100
    QCheck.(pair string (pair int64 int64))
    (fun (s, (ts, seq)) ->
      let tango = { Packet.timestamp_ns = ts; seq; path_id = 5; flags = 0 } in
      let frame =
        Wire.encode_tunnel ~auth_key:reference_key
          ~outer_src:(Ipv6.of_string_exn "2001:db8::1")
          ~outer_dst:(Ipv6.of_string_exn "2001:db8::2")
          ~udp_src:7 ~udp_dst:8 ~tango (Bytes.of_string s)
      in
      match Wire.decode_tunnel ~auth_key:reference_key frame with
      | Ok (_, _, tango', payload) ->
          Bytes.to_string payload = s && Int64.equal tango'.Packet.timestamp_ns ts
      | Error _ -> false)

let wire_qcheck_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip on random payloads" ~count:200
    QCheck.(triple string small_int (pair int64 int64))
    (fun (s, path_id, (ts, seq)) ->
      let tango =
        { Packet.timestamp_ns = ts; seq; path_id = path_id land 0xFFFF; flags = 0 }
      in
      let frame =
        Wire.encode_tunnel
          ~outer_src:(Ipv6.of_string_exn "2001:db8::1")
          ~outer_dst:(Ipv6.of_string_exn "2001:db8::2")
          ~udp_src:7 ~udp_dst:8 ~tango (Bytes.of_string s)
      in
      match Wire.decode_tunnel frame with
      | Ok (_, _, tango', payload) ->
          Bytes.to_string payload = s
          && Int64.equal tango'.Packet.timestamp_ns ts
          && Int64.equal tango'.Packet.seq seq
      | Error _ -> false)

(* The cursor codecs must be bit-for-bit the allocating API: the frame
   written into a reused oversized buffer is byte-identical to
   [encode_tunnel], and [decode_tunnel_into] recovers exactly the same
   headers and payload — across payload lengths 0, odd sizes and the
   auth shim on/off. *)
let wire_qcheck_into_identical =
  QCheck.Test.make ~name:"encode/decode_into identical to allocating API"
    ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 700)) bool)
    (fun (s, authenticated) ->
      let auth_key = if authenticated then Some reference_key else None in
      let payload = Bytes.of_string s in
      let tango = { Packet.timestamp_ns = 17L; seq = 3L; path_id = 6; flags = 0 } in
      let src = Ipv6.of_string_exn "2001:db8::11"
      and dst = Ipv6.of_string_exn "2001:db8::22" in
      let reference =
        Wire.encode_tunnel ?auth_key ~outer_src:src ~outer_dst:dst ~udp_src:40006
          ~udp_dst:4789 ~tango payload
      in
      (* Oversized and dirty, to catch stale-byte reuse. *)
      let buf =
        Bytes.make (Wire.max_frame_bytes ~payload_bytes:(Bytes.length payload) + 32) '\xAA'
      in
      let len =
        Wire.encode_tunnel_into ?auth_key ~outer_src:src ~outer_dst:dst
          ~udp_src:40006 ~udp_dst:4789 ~tango ~buf payload
      in
      let identical =
        len = Bytes.length reference
        && Bytes.equal (Bytes.sub buf 0 len) reference
      in
      let payload_out = Bytes.make (Bytes.length payload + 16) '\xBB' in
      match Wire.decode_tunnel_into ?auth_key ~payload:payload_out reference with
      | Error _ -> false
      | Ok (_, udp, tango', payload_len) ->
          identical
          && payload_len = Bytes.length payload
          && Bytes.equal (Bytes.sub payload_out 0 payload_len) payload
          && Int64.equal tango'.Packet.timestamp_ns 17L
          && udp.Wire.src_port = 40006)

(* Bytes the byte-at-a-time accessors wrote and read, pinned: the
   exported 16- and 32-bit ones, and the 64-bit shim timestamp the
   encoder writes at bytes 48-55. *)
let test_wire_cursor_pinned () =
  let buf = Bytes.make 8 '\x00' in
  Wire.set_u16 buf 0 0x1_ABCD;
  Wire.set_u32 buf 2 (-2);
  Wire.set_u16 buf 6 (-1);
  Alcotest.(check string) "written" "\xAB\xCD\xFF\xFF\xFF\xFE\xFF\xFF"
    (Bytes.to_string buf);
  Alcotest.(check (list int)) "read" [ 0xABCD; 0xFFFF_FFFE; 0xFEFF; 0xFFFF ]
    [ Wire.get_u16 buf 0; Wire.get_u32 buf 2; Wire.get_u16 buf 5; Wire.get_u16 buf 6 ];
  Alcotest.check_raises "read past the end" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Wire.get_u32 buf 5));
  Alcotest.check_raises "write before the start"
    (Invalid_argument "index out of bounds") (fun () -> Wire.set_u16 buf (-1) 0);
  let frame =
    Wire.encode_tunnel
      ~outer_src:(Ipv6.of_string_exn "2001:db8::1")
      ~outer_dst:(Ipv6.of_string_exn "2001:db8::2")
      ~udp_src:7 ~udp_dst:8
      ~tango:{ Packet.timestamp_ns = 0x0102_0304_0506_0708L; seq = -2L; path_id = 1; flags = 0 }
      Bytes.empty
  in
  Alcotest.(check string) "shim timestamp and seq"
    "\x01\x02\x03\x04\x05\x06\x07\x08\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFE"
    (Bytes.sub_string frame 48 16)

let test_wire_into_edge_sizes () =
  (* Zero-length and odd-length payloads exercise the checksum's odd
     tail and the empty-blit path explicitly. *)
  List.iter
    (fun n ->
      List.iter
        (fun auth_key ->
          let payload = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xFF)) in
          let tango = { Packet.timestamp_ns = 5L; seq = 1L; path_id = 0; flags = 0 } in
          let src = Ipv6.of_string_exn "2001:db8::1"
          and dst = Ipv6.of_string_exn "2001:db8::2" in
          let reference =
            Wire.encode_tunnel ?auth_key ~outer_src:src ~outer_dst:dst ~udp_src:1
              ~udp_dst:2 ~tango payload
          in
          let buf = Bytes.make (Wire.max_frame_bytes ~payload_bytes:n) '\xCC' in
          let len =
            Wire.encode_tunnel_into ?auth_key ~outer_src:src ~outer_dst:dst
              ~udp_src:1 ~udp_dst:2 ~tango ~buf payload
          in
          Alcotest.(check bytes)
            (Printf.sprintf "identical frame (%d bytes, auth %b)" n
               (Option.is_some auth_key))
            reference (Bytes.sub buf 0 len))
        [ None; Some reference_key ])
    [ 0; 1; 2; 3; 511; 512 ]

let test_wire_into_small_buffers_rejected () =
  let payload = Bytes.make 32 'p' in
  let tango = { Packet.timestamp_ns = 5L; seq = 1L; path_id = 0; flags = 0 } in
  let src = Ipv6.of_string_exn "2001:db8::1"
  and dst = Ipv6.of_string_exn "2001:db8::2" in
  Alcotest.(check bool) "undersized encode buffer raises" true
    (try
       ignore
         (Wire.encode_tunnel_into ~outer_src:src ~outer_dst:dst ~udp_src:1
            ~udp_dst:2 ~tango ~buf:(Bytes.create 16) payload);
       false
     with Err.Invalid _ -> true);
  let frame =
    Wire.encode_tunnel ~outer_src:src ~outer_dst:dst ~udp_src:1 ~udp_dst:2
      ~tango payload
  in
  match Wire.decode_tunnel_into ~payload:(Bytes.create 4) frame with
  | Ok _ -> Alcotest.fail "undersized payload buffer accepted"
  | Error _ -> ()

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tango_net"
    [
      ("ipv4", [ tc "invalid" `Quick test_ipv4_invalid ]);
      ( "ipv6",
        [
          tc "roundtrip canonical" `Quick test_ipv6_roundtrip_canonical;
          tc "parse forms" `Quick test_ipv6_parse_forms;
          tc "invalid" `Quick test_ipv6_invalid;
          tc "groups roundtrip" `Quick test_ipv6_groups_roundtrip;
          tc "add carry" `Quick test_ipv6_add_carry;
          tc "shifts" `Quick test_ipv6_shifts;
          qc ipv6_qcheck_roundtrip;
        ] );
      ( "prefix",
        [
          tc "parse" `Quick test_prefix_parse;
          tc "canonical" `Quick test_prefix_canonical;
          tc "mem v4" `Quick test_prefix_mem;
          tc "mem v6" `Quick test_prefix_mem_v6;
          tc "zero length" `Quick test_prefix_zero_length;
          tc "subsumes" `Quick test_prefix_subsumes;
          tc "subnet v6" `Quick test_prefix_subnet;
          tc "subnet v4" `Quick test_prefix_subnet_v4;
          tc "nth address" `Quick test_prefix_nth_address;
          tc "nth negative" `Quick test_prefix_nth_negative;
          tc "invalid" `Quick test_prefix_invalid;
          qc prefix_qcheck_subnet_disjoint;
          qc prefix_qcheck_mem_matches_old;
        ] );
      ( "flow",
        [
          tc "hash deterministic" `Quick test_flow_hash_deterministic;
          tc "hash sensitivity" `Quick test_flow_hash_sensitivity;
          tc "hash pinned values" `Quick test_flow_hash_pinned;
          qc flow_qcheck_hash_matches_old;
          tc "invalid" `Quick test_flow_invalid;
        ] );
      ( "packet",
        [
          tc "encap cycle" `Quick test_packet_encap_cycle;
          tc "double encap rejected" `Quick test_packet_double_encap_rejected;
          tc "forwarding flow" `Quick test_packet_forwarding_flow;
          tc "decapsulate raw" `Quick test_packet_decapsulate_raw;
        ] );
      ( "wire",
        [
          tc "roundtrip" `Quick test_wire_roundtrip;
          tc "corruption detected" `Quick test_wire_corruption_detected;
          tc "truncated" `Quick test_wire_truncated;
          tc "wrong version" `Quick test_wire_wrong_version;
          tc "rfc1071 example" `Quick test_wire_checksum_rfc1071;
          qc wire_qcheck_roundtrip;
          tc "cursor codecs: edge payload sizes" `Quick test_wire_into_edge_sizes;
          tc "cursor codecs: undersized buffers" `Quick
            test_wire_into_small_buffers_rejected;
          qc wire_qcheck_into_identical;
          tc "cursor accessors pinned" `Quick test_wire_cursor_pinned;
        ] );
      ( "auth",
        [
          tc "siphash reference vectors" `Quick test_siphash_reference_vectors;
          tc "siphash key sensitivity" `Quick test_siphash_key_sensitivity;
          tc "siphash key of string" `Quick test_siphash_key_of_string;
          tc "auth roundtrip" `Quick test_wire_auth_roundtrip;
          tc "timestamp forgery detected" `Quick test_wire_auth_detects_timestamp_forgery;
          tc "path rebind rejected" `Quick test_wire_auth_path_rebind_rejected;
          tc "downgrade rejected" `Quick test_wire_auth_downgrade_rejected;
          qc wire_qcheck_auth_roundtrip;
        ] );
    ]
