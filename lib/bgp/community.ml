type t = int * int

let v upper lower =
  let check name x =
    if x < 0 || x > 0xFFFF then
      invalid_arg (Printf.sprintf "Community.v: %s half %d out of range" name x)
  in
  check "upper" upper;
  check "lower" lower;
  (upper, lower)

let compare (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

let equal a b = compare a b = 0

let to_string (a, b) = Printf.sprintf "%d:%d" a b

module Set = Stdlib.Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

type action =
  | No_export_to of int
  | Export_only_to of int
  | Prepend_to of int * int
  | No_export_transit

(* Namespaces modelled on Vultr's AS20473 guide: 64600:asn "do not
   announce to asn", 64601:asn "announce only to asn", 6460n:asn
   (n=2..4) "prepend n-1 times to asn", 20473:6001 "do not announce to
   any transit". Neighbor ASNs above 65535 cannot ride in the lower half
   of a classic community; all transit ASNs in our scenarios fit. *)
let ns_no_export = 64600

let ns_export_only = 64601

let ns_prepend_base = 64601 (* 64602 = prepend 1, 64603 = 2, 64604 = 3 *)

let no_export_transit_comm = (20473, 6001)

let action_to_community = function
  | No_export_to asn -> v ns_no_export asn
  | Export_only_to asn -> v ns_export_only asn
  | Prepend_to (asn, n) ->
      if n < 1 || n > 3 then
        invalid_arg "Community.action_to_community: prepend count must be 1-3";
      v (ns_prepend_base + n + 1) asn
  | No_export_transit -> no_export_transit_comm

let action_of_community (upper, lower) =
  if equal (upper, lower) no_export_transit_comm then Some No_export_transit
  else if upper = ns_no_export then Some (No_export_to lower)
  else if upper = ns_export_only then Some (Export_only_to lower)
  else if upper >= ns_prepend_base + 2 && upper <= ns_prepend_base + 4 then
    Some (Prepend_to (lower, upper - ns_prepend_base - 1))
  else None

let actions_of_set set =
  Set.fold
    (fun c acc -> match action_of_community c with Some a -> a :: acc | None -> acc)
    set []
  |> List.rev

let no_export_well_known = (65535, 65281)
