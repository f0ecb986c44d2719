(* Unsigned 64-bit arithmetic helpers on top of [Int64].

   The CHERI-256 capability format uses full 64-bit unsigned base and length
   fields.  OCaml's native [int] is 63-bit, so every architectural quantity
   in this code base is an [Int64.t] interpreted as unsigned.  This module
   centralises the unsigned comparisons and the overflow-sensitive bounds
   arithmetic so that the rest of the model never touches signedness
   directly. *)

type t = int64

let zero = 0L
let one = 1L
let max_value = 0xFFFF_FFFF_FFFF_FFFFL

let of_int = Int64.of_int
let to_int = Int64.to_int
let add = Int64.add
let sub = Int64.sub
let mul = Int64.mul
let logand = Int64.logand
let logor = Int64.logor
let logxor = Int64.logxor
let lognot = Int64.lognot
let shift_left = Int64.shift_left
let shift_right_logical = Int64.shift_right_logical
let shift_right = Int64.shift_right

(* Unsigned comparisons via the sign-flip trick: a <u b iff
   (a xor 2^63) <s (b xor 2^63).  Written with primitive [Int64] ops only
   (xor, typed comparison) so the native compiler keeps every
   intermediate unboxed — [Int64.unsigned_compare] would allocate two
   boxed subtractions per call, and these run several times per simulated
   instruction (every capability bounds check). *)
let flip = Int64.min_int
let compare a b = Stdlib.compare (Int64.logxor a flip) (Int64.logxor b flip)
let equal = Int64.equal
let lt a b = Int64.logxor a flip < Int64.logxor b flip
let le a b = Int64.logxor a flip <= Int64.logxor b flip
let gt a b = Int64.logxor a flip > Int64.logxor b flip
let ge a b = Int64.logxor a flip >= Int64.logxor b flip
let min a b = if le a b then a else b
let max a b = if ge a b then a else b

let div = Int64.unsigned_div
let rem = Int64.unsigned_rem

(* [add_overflows a b] is true when the unsigned sum wraps past 2^64. *)
let add_overflows a b =
  let s = Int64.add a b in
  lt s a

(* [in_range ~addr ~size ~base ~length] checks that the [size]-byte access
   starting at [addr] lies entirely within the segment [base, base+length).
   The arithmetic is careful about 2^64 wrap-around: a segment with
   base=0, length=2^64-1 must admit an access at address 2^64-2 of size 1. *)
let in_range ~addr ~size ~base ~length =
  (* Spelled out with primitive ops (xor-flip unsigned comparisons, raw
     subtraction) rather than [le]/[ge] so the native compiler unboxes
     the intermediates: this runs on every capability bounds check. *)
  Int64.logxor size flip <= Int64.logxor length flip
  && Int64.logxor addr flip >= Int64.logxor base flip
  && Int64.logxor (Int64.sub addr base) flip <= Int64.logxor (Int64.sub length size) flip

(* Alignment helpers; [align] must be a power of two. *)
let align_down v align = logand v (lognot (sub align 1L))

let align_up v align =
  let down = align_down v align in
  if equal down v then v else add down align

(* Smallest power of two >= v (saturating at 2^63 for the model's use on
   allocation sizes, which are far smaller). *)
let round_up_pow2 v =
  if le v 1L then 1L
  else
    let rec go p = if ge p v then p else go (shift_left p 1) in
    go 1L

let pp ppf v = Fmt.pf ppf "0x%Lx" v
let to_string v = Printf.sprintf "0x%Lx" v
