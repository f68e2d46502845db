type t = V4 of Ipv4.t | V6 of Ipv6.t

(* Per-family dispatch without a tuple scrutinee: the lanes call [equal]
   for every packet in [Fabric.lookup_route], and a FIB rebuild sorts
   prefixes with [compare]. *)
let compare a b =
  match a with
  | V4 x -> ( match b with V4 y -> Ipv4.compare x y | V6 _ -> -1)
  | V6 x -> ( match b with V6 y -> Ipv6.compare x y | V4 _ -> 1)

let equal a b =
  match a with
  | V4 x -> ( match b with V4 y -> Ipv4.equal x y | V6 _ -> false)
  | V6 x -> ( match b with V6 y -> Ipv6.equal x y | V4 _ -> false)

let of_string s =
  match Ipv4.of_string s with
  | Ok v4 -> Ok (V4 v4)
  | Error _ -> (
      match Ipv6.of_string s with
      | Ok v6 -> Ok (V6 v6)
      | Error _ -> Error (Printf.sprintf "not an IP address: %S" s))

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> Err.invalid "%s" msg

let to_string = function
  | V4 x -> Ipv4.to_string x
  | V6 x -> Ipv6.to_string x

let family_bits = function V4 _ -> 32 | V6 _ -> 128
