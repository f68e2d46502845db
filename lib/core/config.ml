module Prefix = Tango_net.Prefix

type site = { name : string; clock_offset_ns : int64; policy : Policy.spec }

type t = {
  block : Prefix.t;
  probe_interval_s : float;
  report_interval_s : float;
  sites : site list;
}

let default =
  {
    block = Addressing.default_block;
    probe_interval_s = 0.01;
    report_interval_s = 0.1;
    sites =
      [
        {
          name = "LA";
          clock_offset_ns = 37_000_000L;
          policy = Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 1.0 };
        };
        {
          name = "NY";
          clock_offset_ns = -12_000_000L;
          policy = Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 1.0 };
        };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | Ident of string
  | String_lit of string
  | Number of float
  | Lbrace
  | Rbrace
  | Semicolon

type positioned = { token : token; line : int }

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

let tokenize input =
  let tokens = ref [] in
  let line = ref 1 in
  let n = String.length input in
  let i = ref 0 in
  let push token = tokens := { token; line = !line } :: !tokens in
  let ident_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' | '/' | '+' -> true
    | _ -> false
  in
  while !i < n do
    let c = input.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then begin
      while !i < n && input.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '{' then begin
      push Lbrace;
      incr i
    end
    else if c = '}' then begin
      push Rbrace;
      incr i
    end
    else if c = ';' then begin
      push Semicolon;
      incr i
    end
    else if c = '"' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && input.[!j] <> '"' && input.[!j] <> '\n' do
        incr j
      done;
      if !j >= n || input.[!j] <> '"' then fail !line "unterminated string";
      push (String_lit (String.sub input start (!j - start)));
      i := !j + 1
    end
    else if ident_char c then begin
      let start = !i in
      let j = ref !i in
      while !j < n && ident_char input.[!j] do
        incr j
      done;
      let word = String.sub input start (!j - start) in
      i := !j;
      (* A word that reads as a float is a number, "nan", "inf" and
         "1e30" included (the parser bounds each one); anything else
         stays an identifier (so "2001:db8::/34" is an ident). *)
      match float_of_string_opt word with
      | Some v -> push (Number v)
      | None -> push (Ident word)
    end
    else fail !line "unexpected character %C" c
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

type stream = { mutable rest : positioned list; mutable last_line : int }

let peek s = match s.rest with [] -> None | t :: _ -> Some t

let advance s =
  match s.rest with
  | [] -> fail s.last_line "unexpected end of configuration"
  | t :: rest ->
      s.rest <- rest;
      s.last_line <- t.line;
      t

let expect s want ~what =
  let t = advance s in
  if t.token <> want then fail t.line "expected %s" what

let ident s ~what =
  let t = advance s in
  match t.token with
  | Ident v -> (v, t.line)
  | String_lit _ | Number _ | Lbrace | Rbrace | Semicolon ->
      fail t.line "expected %s" what

let number s ~what =
  let t = advance s in
  match t.token with
  | Number v -> v
  (* The lexer makes every word that reads as a float, "-12" included,
     a number. *)
  | Ident v -> fail t.line "expected %s, got %S" what v
  | String_lit _ | Lbrace | Rbrace | Semicolon -> fail t.line "expected %s" what

let string_lit s ~what =
  let t = advance s in
  match t.token with
  | String_lit v -> v
  | _ -> fail t.line "expected %s" what

(* key/value block: { key value; ... } returning an assoc list *)
let parse_kv_block s =
  expect s Lbrace ~what:"'{'";
  let rec go acc =
    match peek s with
    | Some { token = Rbrace; _ } ->
        ignore (advance s);
        List.rev acc
    | Some _ ->
        let key, line = ident s ~what:"a setting name" in
        let value = number s ~what:(Printf.sprintf "a number for %S" key) in
        expect s Semicolon ~what:"';'";
        go ((key, (value, line)) :: acc)
    | None -> fail s.last_line "unterminated block"
  in
  go []

(* Bounds on numbers, each with the phrase its error gives: the CLI's
   [positive_float] and [non_negative_float], and integers that a float
   holds exactly. *)
let positive = ((fun x -> Float.is_finite x && x > 0.0), "a positive finite number")

let non_negative = ((fun x -> Float.is_finite x && x >= 0.0), "a non-negative finite number")

let offset_ns =
  ( (fun x -> Float.is_integer x && Float.abs x <= 0x1p53),
    "an integer of at most 2^53 ns in magnitude" )

let path_id = ((fun x -> Float.is_integer x && x >= 0.0 && x <= 0x1p53), "a non-negative integer")

let check line key (ok, expect) v = if ok v then v else fail line "%s must be %s, got %g" key expect v

let kv_find kvs key ~default bound =
  match List.assoc_opt key kvs with Some (v, line) -> check line key bound v | None -> default

let kv_check_known kvs known =
  List.iter
    (fun (key, (_, line)) ->
      if not (List.mem key known) then fail line "unknown setting %S" key)
    kvs

let parse_policy s =
  let kind, line = ident s ~what:"a policy name" in
  match kind with
  | "bgp-default" ->
      expect s Semicolon ~what:"';'";
      Policy.Bgp_default
  | "static" ->
      let v = number s ~what:"a path id" in
      let v = check s.last_line "a static path" path_id v in
      expect s Semicolon ~what:"';'";
      Policy.Static (int_of_float v)
  | "lowest-owd" ->
      let kvs = parse_kv_block s in
      kv_check_known kvs [ "hysteresis-ms"; "dwell-s" ];
      Policy.Lowest_owd
        {
          hysteresis_ms = kv_find kvs "hysteresis-ms" ~default:1.0 non_negative;
          min_dwell_s = kv_find kvs "dwell-s" ~default:1.0 non_negative;
        }
  | "jitter-aware" ->
      let kvs = parse_kv_block s in
      kv_check_known kvs [ "beta"; "hysteresis-ms"; "dwell-s" ];
      Policy.Jitter_aware
        {
          beta = kv_find kvs "beta" ~default:5.0 non_negative;
          hysteresis_ms = kv_find kvs "hysteresis-ms" ~default:1.0 non_negative;
          min_dwell_s = kv_find kvs "dwell-s" ~default:1.0 non_negative;
        }
  | other -> fail line "unknown policy %S" other

let parse_site s =
  let name = string_lit s ~what:"a quoted site name" in
  expect s Lbrace ~what:"'{'";
  let clock_offset = ref 0L in
  let policy = ref (Policy.Lowest_owd { hysteresis_ms = 1.0; min_dwell_s = 1.0 }) in
  let rec go () =
    match peek s with
    | Some { token = Rbrace; _ } -> ignore (advance s)
    | Some _ ->
        let key, line = ident s ~what:"a site setting" in
        (match key with
        | "clock-offset-ns" ->
            let v = number s ~what:"an offset" in
            clock_offset := Int64.of_float (check s.last_line key offset_ns v);
            expect s Semicolon ~what:"';'"
        | "policy" -> policy := parse_policy s
        | other -> fail line "unknown site setting %S" other);
        go ()
    | None -> fail s.last_line "unterminated site block"
  in
  go ();
  { name; clock_offset_ns = !clock_offset; policy = !policy }

let parse input =
  match tokenize input with
  | exception Parse_error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)
  | tokens -> (
      let s = { rest = tokens; last_line = 1 } in
      let block = ref default.block in
      let probe = ref default.probe_interval_s in
      let report = ref default.report_interval_s in
      let sites = ref [] in
      let rec go () =
        match peek s with
        | None -> ()
        | Some _ ->
            let key, line = ident s ~what:"a top-level directive" in
            (match key with
            | "block" ->
                let v, vline = ident s ~what:"a prefix" in
                (match Prefix.of_string v with
                | Ok p -> block := p
                | Error e -> fail vline "%s" e);
                expect s Semicolon ~what:"';'"
            | "measurement" ->
                let kvs = parse_kv_block s in
                kv_check_known kvs [ "probe-interval"; "report-interval" ];
                probe := kv_find kvs "probe-interval" ~default:!probe positive;
                report := kv_find kvs "report-interval" ~default:!report positive
            | "site" ->
                let site = parse_site s in
                if List.exists (fun x -> x.name = site.name) !sites then
                  fail line "duplicate site %S" site.name;
                sites := site :: !sites
            | other -> fail line "unknown directive %S" other);
            go ()
      in
      match go () with
      | exception Parse_error (line, msg) ->
          Error (Printf.sprintf "line %d: %s" line msg)
      | () ->
          Ok
            {
              block = !block;
              probe_interval_s = !probe;
              report_interval_s = !report;
              sites = (match !sites with [] -> default.sites | sites -> List.rev sites);
            })

let parse_file path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      parse content

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)

let policy_to_syntax = function
  | Policy.Bgp_default -> "policy bgp-default;"
  | Policy.Static i -> Printf.sprintf "policy static %d;" i
  | Policy.Lowest_owd { hysteresis_ms; min_dwell_s } ->
      Printf.sprintf "policy lowest-owd { hysteresis-ms %g; dwell-s %g; }"
        hysteresis_ms min_dwell_s
  | Policy.Jitter_aware { beta; hysteresis_ms; min_dwell_s } ->
      Printf.sprintf "policy jitter-aware { beta %g; hysteresis-ms %g; dwell-s %g; }"
        beta hysteresis_ms min_dwell_s

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "block %s;\n\n" (Prefix.to_string t.block));
  Buffer.add_string buf
    (Printf.sprintf "measurement {\n  probe-interval %g;\n  report-interval %g;\n}\n"
       t.probe_interval_s t.report_interval_s);
  List.iter
    (fun site ->
      Buffer.add_string buf
        (Printf.sprintf "\nsite \"%s\" {\n  clock-offset-ns %Ld;\n  %s\n}\n"
           site.name site.clock_offset_ns (policy_to_syntax site.policy)))
    t.sites;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Application                                                         *)

let measurement_args t = (t.probe_interval_s, t.report_interval_s)

let apply_vultr ?seed ?scenario t =
  let find name = List.find_opt (fun s -> s.name = name) t.sites in
  match (find "LA", find "NY", List.length t.sites) with
  | _ when not (Prefix.equal t.block Addressing.default_block) ->
      Error
        (Printf.sprintf "apply_vultr: block %s is not the Vultr deployment's %s"
           (Prefix.to_string t.block)
           (Prefix.to_string Addressing.default_block))
  | Some la, Some ny, 2 -> (
      let pair =
        Pair.setup_vultr ?seed ?scenario ~policy_la:la.policy ~policy_ny:ny.policy
          ~clock_offset_la_ns:la.clock_offset_ns
          ~clock_offset_ny_ns:ny.clock_offset_ns ()
      in
      (* A static path must be one the site discovered. *)
      let undiscovered (site, pop) =
        match site.policy with
        | Policy.Static i when i >= Pop.path_count pop ->
            Some
              (Printf.sprintf "apply_vultr: site %S pins static path %d of %d discovered"
                 site.name i (Pop.path_count pop))
        | _ -> None
      in
      match List.find_map undiscovered [ (la, Pair.pop_la pair); (ny, Pair.pop_ny pair) ] with
      | Some e -> Error e
      | None -> Ok pair)
  | _ -> Error "apply_vultr needs exactly two sites named \"LA\" and \"NY\""
