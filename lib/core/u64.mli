(** Unsigned 64-bit arithmetic on top of [Int64].

    Every architectural quantity in the model — addresses, capability base
    and length fields — is an [Int64.t] interpreted as unsigned.  This
    module centralises the unsigned comparisons and the overflow-sensitive
    bounds arithmetic. *)

type t = int64

val zero : t
val one : t

(** 2{^64} - 1, the length of the almighty capability. *)
val max_value : t

val of_int : int -> t
val to_int : t -> int
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right_logical : t -> int -> t
val shift_right : t -> int -> t

(** Unsigned comparison, [Int64.unsigned_compare]. *)
val compare : t -> t -> int

val equal : t -> t -> bool
val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** Unsigned division / remainder. *)
val div : t -> t -> t

val rem : t -> t -> t

(** [add_overflows a b] is true when the unsigned sum wraps past 2{^64}. *)
val add_overflows : t -> t -> bool

(** [in_range ~addr ~size ~base ~length] checks that the [size]-byte access
    starting at [addr] lies entirely within the segment
    [\[base, base+length)], with correct behaviour at the 2{^64} wrap. *)
val in_range : addr:t -> size:t -> base:t -> length:t -> bool

(** Alignment helpers; the alignment must be a power of two. *)
val align_down : t -> t -> t
val align_up : t -> t -> t

(** Smallest power of two greater than or equal to the argument. *)
val round_up_pow2 : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
