(** The five metrics of the limit study (Figure 3), plus the system-call
    rate and storage overhead §7 discusses. *)

type t = {
  mutable refs : int;  (** individual loads + stores *)
  mutable bytes : int;  (** total bytes read or written *)
  mutable instrs : int;  (** baseline instruction stream *)
  mutable extra_opt : int;  (** extra instructions, optimistic checking *)
  mutable extra_pess : int;  (** extra instructions, pessimistic checking *)
  mutable syscalls : int;
  mutable storage : int;  (** bytes allocated, including metadata *)
  pages : (int64, unit) Hashtbl.t;  (** distinct virtual pages touched *)
}

val create : unit -> t

(** Record one memory access (data or metadata): 1 reference, its bytes,
    and the pages it touches. *)
val access : t -> int64 -> int -> unit

val touch_pages : t -> int64 -> int -> unit
val pages : t -> int
val instrs_opt : t -> int
val instrs_pess : t -> int

(** One model's overheads normalized against the baseline run. *)
type row = {
  name : string;
  o_pages : float;
  o_bytes : float;
  o_refs : float;
  o_instr_opt : float;
  o_instr_pess : float;
  syscall_count : int;
  storage_bytes : int;
}

val overhead : name:string -> baseline:t -> t -> row
