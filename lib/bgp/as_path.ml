type t = int list

let empty = []

let of_list l = l

let to_list t = t

let length = List.length

let prepend_n t asn n =
  if n < 0 then invalid_arg "As_path.prepend_n: negative count";
  let rec go acc n = if n = 0 then acc else go (asn :: acc) (n - 1) in
  go t n

let contains t asn = List.mem asn t

let rec origin_as = function
  | [] -> None
  | [ asn ] -> Some asn
  | _ :: rest -> origin_as rest

let neighbor_of_origin t =
  (* Walk from the origin end, skipping prepended repeats of the origin
     ASN; the first differing ASN is the origin's neighbor. Done from the
     tail because with Tango both ends may share the provider ASN, so the
     head of the path can legitimately equal the origin. *)
  match List.rev t with
  | [] -> None
  | origin :: rest ->
      let rec skip = function
        | x :: more when x = origin -> skip more
        | x :: _ -> Some x
        | [] -> None
      in
      skip rest

let is_private asn = asn >= 64512 && asn <= 65534

let strip_private t = List.filter (fun asn -> not (is_private asn)) t

let equal = List.equal Int.equal

let to_string t = String.concat " " (List.map string_of_int t)
