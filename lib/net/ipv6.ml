type t = { hi : int64; lo : int64 }

let compare a b =
  let c = Int64.unsigned_compare a.hi b.hi in
  if c <> 0 then c else Int64.unsigned_compare a.lo b.lo

let equal a b = compare a b = 0

(* tango-lint: allow hot-reach — one record per address Wire.get_ipv6 decodes; allocation-free decode is the ROADMAP wire item *)
let make hi lo = { hi; lo }

let hi t = t.hi

let lo t = t.lo

let of_groups groups =
  if Array.length groups <> 8 then
    Err.invalid "Ipv6.of_groups: expected 8 groups";
  Array.iter
    (fun g ->
      if g < 0 || g > 0xFFFF then
        Err.invalid "Ipv6.of_groups: group %x out of range" g)
    groups;
  let pack a b c d =
    Int64.logor
      (Int64.shift_left (Int64.of_int a) 48)
      (Int64.logor
         (Int64.shift_left (Int64.of_int b) 32)
         (Int64.logor (Int64.shift_left (Int64.of_int c) 16) (Int64.of_int d)))
  in
  {
    hi = pack groups.(0) groups.(1) groups.(2) groups.(3);
    lo = pack groups.(4) groups.(5) groups.(6) groups.(7);
  }

let to_groups t =
  let unpack word =
    [|
      Int64.to_int (Int64.logand (Int64.shift_right_logical word 48) 0xFFFFL);
      Int64.to_int (Int64.logand (Int64.shift_right_logical word 32) 0xFFFFL);
      Int64.to_int (Int64.logand (Int64.shift_right_logical word 16) 0xFFFFL);
      Int64.to_int (Int64.logand word 0xFFFFL);
    |]
  in
  Array.append (unpack t.hi) (unpack t.lo)

(* RFC 5952: compress the longest run of >= 2 zero groups (leftmost wins). *)
let to_string t =
  let groups = to_groups t in
  let best_start = ref (-1) and best_len = ref 0 in
  let cur_start = ref (-1) and cur_len = ref 0 in
  for i = 0 to 7 do
    if groups.(i) = 0 then begin
      if !cur_start < 0 then cur_start := i;
      incr cur_len;
      if !cur_len > !best_len then begin
        best_len := !cur_len;
        best_start := !cur_start
      end
    end
    else begin
      cur_start := -1;
      cur_len := 0
    end
  done;
  let buf = Buffer.create 40 in
  if !best_len >= 2 then begin
    for i = 0 to !best_start - 1 do
      if i > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" groups.(i))
    done;
    Buffer.add_string buf "::";
    for i = !best_start + !best_len to 7 do
      if i > !best_start + !best_len then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" groups.(i))
    done
  end
  else
    for i = 0 to 7 do
      if i > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" groups.(i))
    done;
  Buffer.contents buf

let parse_group s =
  let len = String.length s in
  if len = 0 || len > 4 then None
  else begin
    let ok = ref true in
    String.iter
      (fun c ->
        match c with
        | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
        | _ -> ok := false)
      s;
    if !ok then int_of_string_opt ("0x" ^ s) else None
  end

let of_string s =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  if String.length s = 0 then fail "empty IPv6 address"
  else begin
    (* Split on "::" first; each side is a plain ':'-separated list. *)
    let double_colon_count =
      let count = ref 0 in
      for i = 0 to String.length s - 2 do
        if s.[i] = ':' && s.[i + 1] = ':' then incr count
      done;
      (* "::" inside ":::" would double-count; reject those outright. *)
      !count
    in
    let contains_triple =
      let found = ref false in
      for i = 0 to String.length s - 3 do
        if s.[i] = ':' && s.[i + 1] = ':' && s.[i + 2] = ':' then found := true
      done;
      !found
    in
    if contains_triple then fail "invalid ':::' in %S" s
    else if double_colon_count > 1 then fail "multiple '::' in %S" s
    else begin
      let split_groups part =
        if String.equal part "" then Some []
        else begin
          let pieces = String.split_on_char ':' part in
          let rec parse_all acc = function
            | [] -> Some (List.rev acc)
            | piece :: rest -> (
                match parse_group piece with
                | Some g -> parse_all (g :: acc) rest
                | None -> None)
          in
          parse_all [] pieces
        end
      in
      let build left right =
        match (split_groups left, split_groups right) with
        | Some l, Some r ->
            let missing = 8 - List.length l - List.length r in
            if missing < 0 then fail "too many groups in %S" s
            else begin
              let zeros = List.init missing (fun _ -> 0) in
              let all = l @ zeros @ r in
              Ok (of_groups (Array.of_list all))
            end
        | _ -> fail "invalid group in %S" s
      in
      match String.index_opt s ':' with
      | None -> fail "not an IPv6 address: %S" s
      | Some _ -> (
          match
            (* Locate the "::" if present. *)
            let rec find i =
              if i >= String.length s - 1 then None
              else if s.[i] = ':' && s.[i + 1] = ':' then Some i
              else find (i + 1)
            in
            find 0
          with
          | Some i ->
              let left = String.sub s 0 i in
              let right = String.sub s (i + 2) (String.length s - i - 2) in
              build left right
          | None -> (
              match split_groups s with
              | Some groups when List.length groups = 8 ->
                  Ok (of_groups (Array.of_list groups))
              | Some _ -> fail "wrong group count in %S" s
              | None -> fail "invalid group in %S" s))
    end
  end

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> Err.invalid "%s" msg

let add t offset =
  let lo = Int64.add t.lo offset in
  (* Unsigned overflow detection: result is smaller than an operand. *)
  let carried = Int64.unsigned_compare lo t.lo < 0 in
  { hi = (if carried then Int64.add t.hi 1L else t.hi); lo }

let logand a b = { hi = Int64.logand a.hi b.hi; lo = Int64.logand a.lo b.lo }

let logor a b = { hi = Int64.logor a.hi b.hi; lo = Int64.logor a.lo b.lo }

let lognot a = { hi = Int64.lognot a.hi; lo = Int64.lognot a.lo }

let shift_left t n =
  if n < 0 || n > 128 then Err.invalid "Ipv6.shift_left: shift out of range";
  if n = 0 then t
  else if n >= 128 then { hi = 0L; lo = 0L }
  else if n >= 64 then { hi = Int64.shift_left t.lo (n - 64); lo = 0L }
  else
    {
      hi =
        Int64.logor (Int64.shift_left t.hi n)
          (Int64.shift_right_logical t.lo (64 - n));
      lo = Int64.shift_left t.lo n;
    }

let any = { hi = 0L; lo = 0L }
