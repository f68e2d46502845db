type ipv6_header = {
  traffic_class : int;
  flow_label : int;
  payload_length : int;
  next_header : int;
  hop_limit : int;
  src : Ipv6.t;
  dst : Ipv6.t;
}

type udp_header = { src_port : int; dst_port : int; length : int; checksum : int }

let tango_shim_bytes = 20

let tango_shim_auth_bytes = 28

let auth_flag = 0x0001

let ipv6_header_bytes = 40

let udp_header_bytes = 8

let max_frame_bytes ~payload_bytes =
  ipv6_header_bytes + udp_header_bytes + tango_shim_auth_bytes + payload_bytes

let[@hot] set_u16 buf off v = Bytes.set_uint16_be buf off v

let[@hot] get_u16 buf off = Bytes.get_uint16_be buf off

let[@hot] set_u32 buf off v = Bytes.set_int32_be buf off (Int32.of_int v)

let[@hot] get_u32 buf off = Int32.to_int (Bytes.get_int32_be buf off) land 0xFFFF_FFFF

let[@hot] set_u64 buf off v = Bytes.set_int64_be buf off v

let[@hot] get_u64 buf off = Bytes.get_int64_be buf off

let[@hot] set_ipv6 buf off a =
  set_u64 buf off (Ipv6.hi a);
  set_u64 buf (off + 8) (Ipv6.lo a)

let[@hot] get_ipv6 buf off = Ipv6.make (get_u64 buf off) (get_u64 buf (off + 8))

(* One's-complement accumulation: callers add 16-bit words into a plain
   int accumulator, then [finish_sum] folds the carries and complements.
   Splitting it this way lets the pseudo-header be folded straight into
   the running sum without ever materializing it as bytes. *)

let[@hot] finish_sum sum =
  let sum = ref sum in
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

(* Sum the 16-bit big-endian words of [buf.(off .. off+len-1)], padding
   an odd tail with a zero byte. The word starting at absolute offset
   [skip] (which must be [off]-aligned to a word boundary) is treated as
   zero — how the checksum field itself is excluded without copying. *)
let[@hot] sum_range buf ~off ~len ~skip acc =
  let acc = ref acc in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    if !i <> skip then acc := !acc + get_u16 buf !i;
    i := !i + 2
  done;
  if len land 1 = 1 then acc := !acc + (Bytes.get_uint8 buf (stop - 1) lsl 8);
  !acc

let[@hot] sum_u64 v acc =
  acc
  + (Int64.to_int (Int64.shift_right_logical v 48) land 0xFFFF)
  + (Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFF)
  + (Int64.to_int (Int64.shift_right_logical v 16) land 0xFFFF)
  + (Int64.to_int v land 0xFFFF)

let internet_checksum buf =
  finish_sum (sum_range buf ~off:0 ~len:(Bytes.length buf) ~skip:(-1) 0)

(* IPv6 pseudo-header (src, dst, upper-layer length, next-header 17)
   folded word-by-word into the running sum — no scratch buffer. *)
let[@hot] udp_checksum_range ~src ~dst buf ~off ~len ~skip =
  let acc =
    sum_u64 (Ipv6.hi src)
      (sum_u64 (Ipv6.lo src) (sum_u64 (Ipv6.hi dst) (sum_u64 (Ipv6.lo dst) 0)))
  in
  let acc = acc + (len lsr 16) + (len land 0xFFFF) + 17 in
  let sum = finish_sum (sum_range buf ~off ~len ~skip acc) in
  if sum = 0 then 0xFFFF else sum

let udp_checksum ~src ~dst ~udp =
  udp_checksum_range ~src ~dst udp ~off:0 ~len:(Bytes.length udp) ~skip:(-1)

(* Authentication covers everything an attacker could usefully rewrite:
   outer addresses (path identity), ports (ECMP pin) and the shim. *)
let auth_message_bytes = 56

let[@hot] auth_message_into m ~outer_src ~outer_dst ~udp_src ~udp_dst
    ~(tango : Packet.tango_header) ~flags =
  if Bytes.length m < auth_message_bytes then
    Err.invalid "Wire.auth_message_into: buffer shorter than 56 bytes";
  set_ipv6 m 0 outer_src;
  set_ipv6 m 16 outer_dst;
  set_u16 m 32 udp_src;
  set_u16 m 34 udp_dst;
  set_u64 m 36 tango.Packet.timestamp_ns;
  set_u64 m 44 tango.Packet.seq;
  set_u16 m 52 tango.Packet.path_id;
  set_u16 m 54 flags

(* Per-module scratch for the 56-byte MAC input, reused across packets
   the way an eBPF program reuses its per-CPU scratch map. The simulator
   is single-domain; this is not safe under parallel domains. *)
let auth_scratch = Bytes.make auth_message_bytes '\000'

let[@hot] mac ~auth_key ~outer_src ~outer_dst ~udp_src ~udp_dst ~tango ~flags =
  auth_message_into auth_scratch ~outer_src ~outer_dst ~udp_src ~udp_dst ~tango
    ~flags;
  Siphash.mac auth_key auth_scratch

let[@hot] encode_tunnel_into ?auth_key ~outer_src ~outer_dst ~udp_src ~udp_dst
    ~(tango : Packet.tango_header) ~buf payload =
  let authenticated = Option.is_some auth_key in
  let shim_bytes = if authenticated then tango_shim_auth_bytes else tango_shim_bytes in
  let wire_flags =
    if authenticated then tango.flags lor auth_flag else tango.flags land lnot auth_flag
  in
  let payload_len = Bytes.length payload in
  let udp_len = udp_header_bytes + shim_bytes + payload_len in
  let total = ipv6_header_bytes + udp_len in
  if Bytes.length buf < total then
    Err.invalid "Wire.encode_tunnel_into: buffer %d < frame %d"
         (Bytes.length buf) total;
  (* IPv6 fixed header. *)
  Bytes.set_uint8 buf 0 0x60;
  Bytes.set_uint8 buf 1 0;
  set_u16 buf 2 0;
  set_u16 buf 4 udp_len;
  Bytes.set_uint8 buf 6 17 (* next header: UDP *);
  Bytes.set_uint8 buf 7 64 (* hop limit *);
  set_ipv6 buf 8 outer_src;
  set_ipv6 buf 24 outer_dst;
  (* UDP header. *)
  let udp_off = ipv6_header_bytes in
  set_u16 buf udp_off udp_src;
  set_u16 buf (udp_off + 2) udp_dst;
  set_u16 buf (udp_off + 4) udp_len;
  set_u16 buf (udp_off + 6) 0;
  (* Tango shim: timestamp(8) seq(8) path_id(2) flags(2) [tag(8)]. *)
  let shim_off = udp_off + udp_header_bytes in
  set_u64 buf shim_off tango.timestamp_ns;
  set_u64 buf (shim_off + 8) tango.seq;
  set_u16 buf (shim_off + 16) tango.path_id;
  set_u16 buf (shim_off + 18) wire_flags;
  (match auth_key with
  | Some key ->
      set_u64 buf (shim_off + 20)
        (mac ~auth_key:key ~outer_src ~outer_dst ~udp_src ~udp_dst ~tango
           ~flags:wire_flags)
  | None -> ());
  Bytes.blit payload 0 buf (shim_off + shim_bytes) payload_len;
  (* Checksum over the UDP datagram in place (the field is still zero). *)
  let sum =
    udp_checksum_range ~src:outer_src ~dst:outer_dst buf ~off:udp_off
      ~len:udp_len ~skip:(-1)
  in
  set_u16 buf (udp_off + 6) sum;
  total

let encode_tunnel ?auth_key ~outer_src ~outer_dst ~udp_src ~udp_dst ~tango
    payload =
  let authenticated = Option.is_some auth_key in
  let shim_bytes = if authenticated then tango_shim_auth_bytes else tango_shim_bytes in
  let total =
    ipv6_header_bytes + udp_header_bytes + shim_bytes + Bytes.length payload
  in
  let buf = Bytes.create total in
  let written =
    encode_tunnel_into ?auth_key ~outer_src ~outer_dst ~udp_src ~udp_dst ~tango
      ~buf payload
  in
  assert (written = total);
  buf

(* Zero-copy parse: validate the frame and locate the payload without
   allocating anything beyond the two small header records. *)
let decode_tunnel_spans ?auth_key buf =
  let len = Bytes.length buf in
  if len < ipv6_header_bytes + udp_header_bytes + tango_shim_bytes then
    Error (Printf.sprintf "frame too short: %d bytes" len)
  else if Bytes.get_uint8 buf 0 lsr 4 <> 6 then
    Error "not an IPv6 frame"
  else begin
    let payload_length = get_u16 buf 4 in
    let next_header = Bytes.get_uint8 buf 6 in
    if next_header <> 17 then Error (Printf.sprintf "next header %d is not UDP" next_header)
    else if ipv6_header_bytes + payload_length > len then Error "truncated frame"
    else begin
      let ipv6 =
        {
          traffic_class =
            ((Bytes.get_uint8 buf 0 land 0x0F) lsl 4)
            lor (Bytes.get_uint8 buf 1 lsr 4);
          flow_label =
            ((Bytes.get_uint8 buf 1 land 0x0F) lsl 16)
            lor (Bytes.get_uint8 buf 2 lsl 8)
            lor Bytes.get_uint8 buf 3;
          payload_length;
          next_header;
          hop_limit = Bytes.get_uint8 buf 7;
          src = get_ipv6 buf 8;
          dst = get_ipv6 buf 24;
        }
      in
      let udp_off = ipv6_header_bytes in
      let udp =
        {
          src_port = get_u16 buf udp_off;
          dst_port = get_u16 buf (udp_off + 2);
          length = get_u16 buf (udp_off + 4);
          checksum = get_u16 buf (udp_off + 6);
        }
      in
      if udp.length <> payload_length then Error "UDP length mismatch"
      else begin
        (* Verify by recomputing with the checksum word skipped in place —
           no zeroed copy of the datagram. *)
        let expect =
          udp_checksum_range ~src:ipv6.src ~dst:ipv6.dst buf ~off:udp_off
            ~len:udp.length ~skip:(udp_off + 6)
        in
        if expect <> udp.checksum then
          Error
            (Printf.sprintf "bad UDP checksum: got %04x want %04x" udp.checksum
               expect)
        else begin
          let shim_off = udp_off + udp_header_bytes in
          let wire_flags = get_u16 buf (shim_off + 18) in
          let authenticated = wire_flags land auth_flag <> 0 in
          let tango : Packet.tango_header =
            {
              timestamp_ns = get_u64 buf shim_off;
              seq = get_u64 buf (shim_off + 8);
              path_id = get_u16 buf (shim_off + 16);
              flags = wire_flags;
            }
          in
          let shim_bytes =
            if authenticated then tango_shim_auth_bytes else tango_shim_bytes
          in
          if ipv6_header_bytes + payload_length < shim_off + shim_bytes then
            Error "frame too short for its shim"
          else begin
            match (auth_key, authenticated) with
            | None, true -> Error "authenticated frame but no key configured"
            | Some _, false -> Error "unauthenticated frame rejected (key configured)"
            | None, false ->
                let payload_off = shim_off + shim_bytes in
                let payload_len = ipv6_header_bytes + payload_length - payload_off in
                Ok (ipv6, udp, tango, payload_off, payload_len)
            | Some key, true ->
                let expect =
                  mac ~auth_key:key ~outer_src:ipv6.src ~outer_dst:ipv6.dst
                    ~udp_src:udp.src_port ~udp_dst:udp.dst_port ~tango
                    ~flags:wire_flags
                in
                if not (Int64.equal expect (get_u64 buf (shim_off + 20))) then
                  Error "authentication tag mismatch"
                else begin
                  let payload_off = shim_off + shim_bytes in
                  let payload_len = ipv6_header_bytes + payload_length - payload_off in
                  Ok (ipv6, udp, tango, payload_off, payload_len)
                end
          end
        end
      end
    end
  end

let decode_tunnel_into ?auth_key ~payload buf =
  match decode_tunnel_spans ?auth_key buf with
  | Error _ as e -> e
  | Ok (ipv6, udp, tango, payload_off, payload_len) ->
      if Bytes.length payload < payload_len then
        Error
          (Printf.sprintf "payload buffer %d < payload %d" (Bytes.length payload)
             payload_len)
      else begin
        Bytes.blit buf payload_off payload 0 payload_len;
        Ok (ipv6, udp, tango, payload_len)
      end

let decode_tunnel ?auth_key buf =
  match decode_tunnel_spans ?auth_key buf with
  | Error _ as e -> e
  | Ok (ipv6, udp, tango, payload_off, payload_len) ->
      Ok (ipv6, udp, tango, Bytes.sub buf payload_off payload_len)
