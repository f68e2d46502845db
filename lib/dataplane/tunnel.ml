module Packet = Tango_net.Packet

type t = {
  path_id : int;
  label : string;
  local_endpoint : Tango_net.Addr.t;
  remote_endpoint : Tango_net.Addr.t;
  mutable next_seq : int64;
}

let create ~path_id ~label ~local_endpoint ~remote_endpoint () =
  if path_id < 0 || path_id > 0xFFFF then
    Err.invalid "Tunnel.create: path_id outside 16 bits";
  { path_id; label; local_endpoint; remote_endpoint; next_seq = 0L }

let send t ~clock ~now_s (packet : Packet.t) =
  let seq = t.next_seq in
  t.next_seq <- Int64.add seq 1L;
  Packet.encapsulate packet
    {
      Packet.outer_src = t.local_endpoint;
      outer_dst = t.remote_endpoint;
      udp_src = 40000 + t.path_id;
      udp_dst = 4789;
      tango =
        {
          Packet.timestamp_ns = Clock.now_ns clock ~sim_time_s:now_s;
          seq;
          path_id = t.path_id;
          flags = 0;
        };
    }

let owd_ms ~clock ~now_s (tango : Packet.tango_header) =
  Clock.owd_ms clock ~now_s ~stamp_ns:tango.Packet.timestamp_ns
