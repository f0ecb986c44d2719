(** A set-associative, write-back, write-allocate cache model with LRU
    replacement.

    Purely a performance model: data lives in {!Phys}; the cache tracks
    which lines are resident so both the machine and the trace-replay
    simulators can drive it.  The model is on the simulator's
    per-instruction path, so geometry is restricted to powers of two and
    {!access} is allocation-free (int shift/mask indexing, loop-based way
    and victim search, preallocated outcomes).  State is flat arrays
    indexed by slot [set * assoc + way]. *)

type t = {
  name : string;
  line_bytes : int;
  sets : int;
  assoc : int;
  line_bits : int;  (** log2 [line_bytes] *)
  set_bits : int;  (** log2 [sets] *)
  tags : int array;  (** slot -> tag, -1 = invalid *)
  lru : int array;  (** slot -> last-use tick *)
  dirty : Bytes.t;  (** slot -> ['\001'] when dirty *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable mru_line : int;
      (** one-line MRU front: line index of the previous access (-1 =
          empty); repeats skip the way search with bit-identical counter
          and LRU updates *)
  mutable mru_slot : int;  (** the slot holding [mru_line] *)
}

(** [create ~name ~size_bytes ~line_bytes ~assoc] — capacity must be a
    multiple of [line_bytes * assoc], and both [line_bytes] and the
    derived set count must be powers of two (shift/mask indexing).
    @raise Invalid_argument otherwise, naming the offending parameter. *)
val create : name:string -> size_bytes:int -> line_bytes:int -> assoc:int -> t

val size_bytes : t -> int

(** Line index of an address ([addr / line_bytes] as a native int): the
    unit {!access_line} operates on. *)
val line_index : t -> int64 -> int

type outcome =
  | Hit
  | Miss of { writeback : bool }  (** the victim line was dirty *)

(** [access t ~addr ~write] touches the line containing [addr]; on a miss
    the LRU way is evicted and the line installed.  Never allocates. *)
val access : t -> addr:int64 -> write:bool -> outcome

(** [access_line t ~line ~write] — the int-indexed equivalent of
    {!access} for callers that already hold a line index. *)
val access_line : t -> line:int -> write:bool -> outcome

val pp_stats : Format.formatter -> t -> unit

(** {1 Snapshot / restore} — the slot arrays and stats copied and
    blitted back; the host-only MRU front is emptied (bit-exact — the
    full way search it fronts makes identical updates). *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
