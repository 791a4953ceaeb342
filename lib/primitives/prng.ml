(* The state lives unboxed in 8 bytes: a mutable [int64] field would box
   every new state, and every draw would allocate. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 s;
  g

let create ~seed = of_state (Int64.of_int seed)

(* SplitMix64 output function (Steele, Lea & Flood 2014).  Inlined, like
   [next_int64], so the [int64]s of a draw stay unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 g =
  let s = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 s;
  mix s

let split g = of_state (next_int64 g)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (next_int64 g) land max_int in
  r mod bound

let bool g = Int64.logand (next_int64 g) 1L = 1L

let[@inline] float g =
  (* 53 high-quality bits into the mantissa. *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 g) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let id = (Domain.self () :> int) in
      create ~seed:(0x6A09E667 + (id * 0x9E3779B1)))

let domain_local () = Domain.DLS.get key
