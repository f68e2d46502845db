let vultr_asn = 20473

let vultr_la = 1

let vultr_ny = 2

let server_la = 11

let server_ny = 12

let ntt = 2914

let telia = 1299

let gtt = 3257

let cogent = 174

let level3 = 3356

let transit_name id =
  if id = ntt then "NTT"
  else if id = telia then "Telia"
  else if id = gtt then "GTT"
  else if id = cogent then "Cogent"
  else if id = level3 then "Level3"
  else Printf.sprintf "AS%d" id

(* Split each direct transit's calibrated server-to-server OWD across its
   two Vultr attachment links; the 0.4 ms accounts for the two server
   links. *)
let half target = (target -. 0.4) /. 2.0

let access_link = Link.v ~jitter_ms:0.005 0.2

let peering_link = Link.v ~jitter_ms:0.005 1.0

let build () =
  let t = Topology.create () in
  Topology.add_node t ~id:vultr_la ~asn:vultr_asn "Vultr-LA";
  Topology.add_node t ~id:vultr_ny ~asn:vultr_asn "Vultr-NY";
  Topology.add_node t ~id:server_la ~asn:64512 ~private_asn:true "Tango-LA";
  Topology.add_node t ~id:server_ny ~asn:64513 ~private_asn:true "Tango-NY";
  Topology.add_node t ~id:ntt ~asn:ntt "NTT";
  Topology.add_node t ~id:telia ~asn:telia "Telia";
  Topology.add_node t ~id:gtt ~asn:gtt "GTT";
  Topology.add_node t ~id:cogent ~asn:cogent "Cogent";
  Topology.add_node t ~id:level3 ~asn:level3 "Level3";
  (* Servers are Vultr customers (eBGP to the co-located router). *)
  Topology.connect t ~provider:vultr_la ~customer:server_la ~link:access_link ();
  Topology.connect t ~provider:vultr_ny ~customer:server_ny ~link:access_link ();
  (* Vultr transit attachments; the cross-country delay lives here. *)
  let attach vultr transit delay =
    Topology.connect t ~provider:transit ~customer:vultr
      ~link:(Link.v ~jitter_ms:0.01 delay) ()
  in
  attach vultr_la ntt (half 36.4);
  attach vultr_ny ntt (half 36.4);
  attach vultr_la telia (half 31.0);
  attach vultr_ny telia (half 31.0);
  attach vultr_la gtt (half 28.0);
  attach vultr_ny gtt (half 28.0);
  attach vultr_ny cogent 14.1;
  attach vultr_la level3 14.1;
  (* Full settlement-free mesh among the transits. *)
  let transits = [ ntt; telia; gtt; cogent; level3 ] in
  let rec mesh = function
    | [] -> ()
    | a :: rest ->
        List.iter (fun b -> Topology.connect_peers t a b ~link:peering_link ()) rest;
        mesh rest
  in
  mesh transits;
  t

let vultr_neighbor_weight id =
  if id = ntt then 120
  else if id = telia then 115
  else if id = gtt then 110
  else if id = cogent || id = level3 then 105
  else 100
