(* Minimal strict JSON reader. The toolchain ships no JSON library, and
   every consumer parses machine-written output (BENCH.json, --metrics
   JSON-lines), so a small recursive-descent parser over the full input
   string is enough. Cold path only. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.equal (String.sub s !pos m) word then begin
      pos := !pos + m;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' ->
              advance ();
              Buffer.add_char b '"';
              go ()
          | Some '\\' ->
              advance ();
              Buffer.add_char b '\\';
              go ()
          | Some '/' ->
              advance ();
              Buffer.add_char b '/';
              go ()
          | Some 'n' ->
              advance ();
              Buffer.add_char b '\n';
              go ()
          | Some 't' ->
              advance ();
              Buffer.add_char b '\t';
              go ()
          | Some 'r' ->
              advance ();
              Buffer.add_char b '\r';
              go ()
          | Some 'b' ->
              advance ();
              Buffer.add_char b '\b';
              go ()
          | Some 'f' ->
              advance ();
              Buffer.add_char b '\012';
              go ()
          | Some 'u' ->
              (* Our writers only emit \uXXXX for control characters,
                 which are ASCII; decode the low byte, map the rest to
                 '?' rather than transcoding UTF-16. *)
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | Some _ -> Buffer.add_char b '?'
              | None -> fail "bad \\u escape");
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some v -> Num v
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if (match peek () with Some '}' -> true | _ -> false) then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if (match peek () with Some ']' -> true | _ -> false) then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let number_opt v = match v with Some (Num x) -> Some x | _ -> None

let string_opt v = match v with Some (Str x) -> Some x | _ -> None

let int_opt v =
  match v with
  | Some (Num x) when Float.is_integer x -> Some (int_of_float x)
  | _ -> None
