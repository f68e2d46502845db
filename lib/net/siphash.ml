type key = { k0 : int64; k1 : int64 }

let key k0 k1 = { k0; k1 }

let key_of_string s =
  if String.length s <> 16 then
    Err.invalid "Siphash.key_of_string: need exactly 16 bytes";
  let le64 off =
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
    done;
    !v
  in
  { k0 = le64 0; k1 = le64 8 }

let[@inline] rotl x b =
  Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

(* Little-endian load of the [available] (< 8) bytes at [off]. *)
let tail_word input off available =
  let v = ref 0L in
  for i = available - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Bytes.get_uint8 input (off + i)))
  done;
  !v

(* One loop over every SipRound, so the four lanes stay in local refs
   (no tuple per round, no closure over the state): two rounds per
   message word — the full 8-byte words, then the tail bytes with the
   length in the top byte — bracketed by v3 ^= m and v0 ^= m, then
   v2 ^= 0xff and four finalization rounds. *)
let mac { k0; k1 } input =
  let len = Bytes.length input in
  let v0 = ref (Int64.logxor k0 0x736f6d6570736575L) in
  let v1 = ref (Int64.logxor k1 0x646f72616e646f6dL) in
  let v2 = ref (Int64.logxor k0 0x6c7967656e657261L) in
  let v3 = ref (Int64.logxor k1 0x7465646279746573L) in
  let full_blocks = len / 8 in
  let last =
    Int64.logor
      (tail_word input (full_blocks * 8) (len land 7))
      (Int64.shift_left (Int64.of_int (len land 0xFF)) 56)
  in
  let compression = 2 * (full_blocks + 1) in
  let m = ref 0L in
  for r = 0 to compression + 3 do
    if r < compression && r land 1 = 0 then begin
      m := if r < compression - 2 then Bytes.get_int64_le input (r * 4) else last;
      v3 := Int64.logxor !v3 !m
    end
    else if r = compression then v2 := Int64.logxor !v2 0xFFL;
    v0 := Int64.add !v0 !v1;
    v1 := Int64.logxor (rotl !v1 13) !v0;
    v0 := rotl !v0 32;
    v2 := Int64.add !v2 !v3;
    v3 := Int64.logxor (rotl !v3 16) !v2;
    v0 := Int64.add !v0 !v3;
    v3 := Int64.logxor (rotl !v3 21) !v0;
    v2 := Int64.add !v2 !v1;
    v1 := Int64.logxor (rotl !v1 17) !v2;
    v2 := rotl !v2 32;
    if r < compression && r land 1 = 1 then v0 := Int64.logxor !v0 !m
  done;
  Int64.logxor (Int64.logxor !v0 !v1) (Int64.logxor !v2 !v3)
