type t = Announce of Route.t | Withdraw of Tango_net.Prefix.t

type emission = { to_node : int; update : t }
