(* Self-contained deterministic PRNG for fault-injection campaigns:
   splitmix64 (Steele, Lea & Flood, OOPSLA'14).  One 64-bit word of state,
   full period, excellent avalanche — and, unlike [Random], the stream is
   stable across OCaml versions, so a campaign seed names the exact same
   fault forever. *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let gamma = 0x9E37_79B9_7F4A_7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58_476D_1CE4_E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D0_49BB_1331_11EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state gamma;
  mix t.state

(* The next [Bytes.length b / 8] draws of [next], in order, as
   little-endian words of [b]: the state stays unboxed in the loop, so a
   window of draws allocates one box rather than two per word. *)
let fill_words t b =
  let s = ref t.state in
  for k = 0 to (Bytes.length b / 8) - 1 do
    s := Int64.add !s gamma;
    Bytes.set_int64_le b (k * 8) (mix !s)
  done;
  t.state <- !s

(* [int64 t bound] is uniform-enough in [0, bound) for fault-site selection
   (the modulo bias is < 2^-40 for any bound a campaign uses). *)
let int64 t bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Prng.int64: bound <= 0";
  Int64.unsigned_rem (next t) bound

let int t bound = Int64.to_int (int64 t (Int64.of_int bound))
let bool t = Int64.logand (next t) 1L = 1L
let choose t l = List.nth l (int t (List.length l))
