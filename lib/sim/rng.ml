(* The 64-bit state lives in 8 bytes rather than a mutable [int64]
   field: storing an [int64] into a record boxes it, so every draw would
   allocate. [Bytes.get_int64_le]/[set_int64_le] keep the state unboxed
   through the step, and the [@inline] helpers below keep the raw word
   and the unit draw unboxed inside each public function. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

(* SplitMix64 output function: state advances by the golden gamma, the
   mixed value is returned. *)
let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* 53 uniformly random mantissa bits, in [0, 1). *)
let[@inline] unit t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

(* A unit draw in (1e-300, 1): the logarithms below need it positive. *)
let[@inline] positive_unit t =
  let u = ref (unit t) in
  while !u <= 1e-300 do
    u := unit t
  done;
  !u

let bits64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native int non-negatively. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound = bound *. unit t

let bool t = Int64.logand (next t) 1L = 1L

let gaussian t ~mean ~std =
  let u1 = positive_unit t in
  let u2 = unit t in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (std *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log (positive_unit t) /. rate

let pareto t ~scale ~shape =
  if scale <= 0.0 || shape <= 0.0 then
    invalid_arg "Rng.pareto: scale and shape must be positive";
  scale /. (positive_unit t ** (1.0 /. shape))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
