type tango_header = {
  timestamp_ns : int64;
  seq : int64;
  path_id : int;
  flags : int;
}

type encap = {
  outer_src : Addr.t;
  outer_dst : Addr.t;
  udp_src : int;
  udp_dst : int;
  tango : tango_header;
}

type content = ..

type t = {
  id : int;
  flow : Flow.t;
  payload_bytes : int;
  created_at : float;
  content : content option;
  mutable encap : encap option;
}

let create ~id ~flow ~payload_bytes ?content ~created_at () =
  if payload_bytes < 0 then Err.invalid "Packet.create: negative payload";
  { id; flow; payload_bytes; created_at; content; encap = None }

let encapsulate t encap =
  match t.encap with
  | Some _ -> Err.invalid "Packet.encapsulate: already encapsulated"
  | None -> t.encap <- Some encap

let decapsulate t =
  match t.encap with
  | None -> Err.invalid "Packet.decapsulate: not encapsulated"
  | Some e ->
      t.encap <- None;
      e

let is_encapsulated t = Option.is_some t.encap

let forwarding_hash ~salt t =
  match t.encap with
  | None -> Flow.hash_5tuple ~salt t.flow
  | Some e ->
      Flow.hash_fields ~salt ~src:e.outer_src ~dst:e.outer_dst ~proto:17
        ~src_port:e.udp_src ~dst_port:e.udp_dst

let forwarding_dst t =
  match t.encap with None -> t.flow.Flow.dst | Some e -> e.outer_dst

(* Fixed header sizes: inner IPv6 (40); tunnel adds outer IPv6 (40),
   UDP (8) and the 20-byte Tango shim. *)
let inner_header_bytes = 40

let tunnel_header_bytes = 40 + 8 + 20

let tunnel_wire_size ~payload_bytes =
  payload_bytes + inner_header_bytes + tunnel_header_bytes

let wire_size t =
  match t.encap with
  | None -> t.payload_bytes + inner_header_bytes
  | Some _ -> tunnel_wire_size ~payload_bytes:t.payload_bytes
