(** The general-purpose register file: 32 64-bit registers with $0
    hardwired to zero, plus HI/LO, held unboxed in one byte image. *)

type t

val create : unit -> t

(** [get t 0] is always 0. *)
val get : t -> int -> int64

(** Writes to register 0 are discarded. *)
val set : t -> int -> int64 -> unit

val hi : t -> int64
val lo : t -> int64
val set_hi : t -> int64 -> unit
val set_lo : t -> int64 -> unit
val copy : t -> t

(** [load t src] overwrites [t] with [src] (context restore). *)
val load : t -> t -> unit

(** Every register and HI/LO equal, compared without boxing. *)
val equal : t -> t -> bool

(** [None] when [equal]; otherwise the first difference, for a failure
    report: ["r<i>: 0x<a> vs 0x<b>"] for the lowest differing GPR, else
    ["hi differs"] or ["lo differs"]. *)
val diff : t -> t -> string option

(** {1 Unboxed image access}

    For the interpreter's hot path: the 64-bit word at byte offset [off]
    of the image, bounds-checked.  GPR [i] sits at [8 * i] and must never
    be written at [i = 0]; HI and LO sit at [hi_off] and [lo_off]. *)

val get64 : t -> int -> int64
val set64 : t -> int -> int64 -> unit

val hi_off : int
val lo_off : int

(** {1 ABI register numbers} *)

val zero : int
val at : int
val v0 : int
val v1 : int
val a0 : int
val a1 : int
val a2 : int
val a3 : int
val t0 : int
val t1 : int
val t2 : int
val t3 : int
val s0 : int
val s1 : int
val s2 : int
val s3 : int
val t8 : int
val t9 : int
val k0 : int
val k1 : int
val gp : int
val sp : int
val fp : int
val ra : int
