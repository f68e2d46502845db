type t = Customer | Provider | Peer

let equal a b =
  match (a, b) with
  | Customer, Customer | Provider, Provider | Peer, Peer -> true
  | (Customer | Provider | Peer), _ -> false

let inverse = function
  | Customer -> Provider
  | Provider -> Customer
  | Peer -> Peer

let export_allowed ~learned_from ~exporting_to =
  match learned_from with
  | Customer -> true
  | Peer | Provider -> ( match exporting_to with Customer -> true | Peer | Provider -> false)

let base_local_pref = function Customer -> 300 | Peer -> 200 | Provider -> 100
