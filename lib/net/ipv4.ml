type t = int32

let compare = Int32.unsigned_compare

let equal = Int32.equal

let of_int32 x = x

let to_int32 x = x

let of_octets a b c d =
  let check name v =
    if v < 0 || v > 255 then
      Err.invalid "Ipv4.of_octets: %s octet %d out of range" name v
  in
  check "first" a;
  check "second" b;
  check "third" c;
  check "fourth" d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.logor
       (Int32.shift_left (Int32.of_int b) 16)
       (Int32.logor (Int32.shift_left (Int32.of_int c) 8) (Int32.of_int d)))

let octet t shift = Int32.to_int (Int32.logand (Int32.shift_right_logical t shift) 0xFFl)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (octet t 24) (octet t 16) (octet t 8) (octet t 0)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let parse x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && String.length x <= 3 -> Some v
        | Some _ | None -> None
      in
      match (parse a, parse b, parse c, parse d) with
      | Some a, Some b, Some c, Some d -> Ok (of_octets a b c d)
      | _ -> Error (Printf.sprintf "invalid IPv4 octet in %S" s))
  | _ -> Error (Printf.sprintf "invalid IPv4 address %S" s)

let add t n = Int32.add t (Int32.of_int n)
