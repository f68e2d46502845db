module Network = Tango_bgp.Network
module As_path = Tango_bgp.As_path
module Prefix = Tango_net.Prefix

type verdict = Live | Moved | Gone

type entry = { prefix : Prefix.t; mutable baseline : As_path.t option }

type t = { net : Network.t; observer : int; entries : entry array }

let snapshot_of t (e : entry) =
  e.baseline <- Network.as_path t.net ~node:t.observer e.prefix

let create ~net ~observer ~prefixes =
  let t =
    {
      net;
      observer;
      entries =
        Array.of_list
          (List.map (fun prefix -> { prefix; baseline = None }) prefixes);
    }
  in
  Array.iter (snapshot_of t) t.entries;
  t

(* The classification itself: pure, allocation-free, and on the hot
   side of every reconciliation check. *)
let[@hot] verdict_of ~baseline ~current =
  match current with
  | None -> Gone
  | Some cur -> (
      match baseline with
      | Some base -> if As_path.equal base cur then Live else Moved
      | None -> Moved)

let classify t i =
  let e = t.entries.(i) in
  verdict_of ~baseline:e.baseline
    ~current:(Network.as_path t.net ~node:t.observer e.prefix)

let check t = Array.init (Array.length t.entries) (fun i -> classify t i)

let all_live t =
  let n = Array.length t.entries in
  let rec go i =
    i >= n || (match classify t i with Live -> go (i + 1) | Moved | Gone -> false)
  in
  go 0

let rebase t = Array.iter (snapshot_of t) t.entries
