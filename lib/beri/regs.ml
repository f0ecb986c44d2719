(* The general-purpose register file: 32 64-bit registers with $0 hardwired
   to zero, plus the HI/LO multiply-divide pair.

   The registers live unboxed in one byte image, 8 bytes each: GPR i at
   byte [8 * i], HI at [hi_off], LO at [lo_off].  The interpreter reads
   and writes the image through [get64]/[set64], Stdlib's native-endian
   accessors, which the compiler inlines across modules, so a register
   write stores a machine word instead of allocating an [int64] box.
   [$0]'s slot is never written, so it reads 0 without a branch. *)

type t = Bytes.t

let get64 = Bytes.get_int64_ne
let set64 = Bytes.set_int64_ne

let hi_off = 8 * 32
let lo_off = 8 * 33
let create () = Bytes.make (8 * 34) '\000'

let check i name = if i < 0 || i > 31 then invalid_arg name

let get t i =
  check i "Regs.get";
  get64 t (i lsl 3)

let hi t = get64 t hi_off
let lo t = get64 t lo_off
let set_hi t v = set64 t hi_off v
let set_lo t v = set64 t lo_off v
let copy = Bytes.copy
let load t src = Bytes.blit src 0 t 0 (Bytes.length t)
let equal = Bytes.equal

let diff a b =
  if equal a b then None
  else
    let rec first i =
      if i > 31 then Some (if Int64.equal (hi a) (hi b) then "lo differs" else "hi differs")
      else
        let x = get64 a (i lsl 3) and y = get64 b (i lsl 3) in
        if Int64.equal x y then first (i + 1) else Some (Printf.sprintf "r%d: 0x%Lx vs 0x%Lx" i x y)
    in
    first 1

(* Conventional MIPS ABI register assignments used by the assembler,
   compiler, and kernel. *)
let zero = 0
let at = 1
let v0 = 2
let v1 = 3
let a0 = 4
let a1 = 5
let a2 = 6
let a3 = 7
let t0 = 12
let t1 = 13
let t2 = 14
let t3 = 15
let s0 = 16
let s1 = 17
let s2 = 18
let s3 = 19
let t8 = 24
let t9 = 25
let k0 = 26
let k1 = 27
let gp = 28
let sp = 29
let fp = 30
let ra = 31
