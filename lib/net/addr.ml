type t = Ipv6.t

let compare = Ipv6.compare

let equal = Ipv6.equal

let of_string s =
  match Ipv6.of_string s with
  | Ok _ as ok -> ok
  | Error _ -> Error (Printf.sprintf "not an IP address: %S" s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> Err.invalid "%s" msg

let to_string = Ipv6.to_string
