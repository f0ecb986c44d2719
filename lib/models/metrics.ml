(* The five metrics of the limit study (Figure 3), plus the system-call
   rate and storage overhead the text of Section 7 discusses.  Absolute
   counts here; [overhead_pct] turns them into the normalized overheads
   the figure plots. *)

type t = {
  mutable refs : int; (* individual loads + stores *)
  mutable bytes : int; (* total bytes read or written *)
  mutable instrs : int; (* baseline instruction stream *)
  mutable extra_opt : int; (* extra instructions, optimistic checking *)
  mutable extra_pess : int; (* extra instructions, pessimistic checking *)
  mutable syscalls : int;
  mutable storage : int; (* bytes of memory allocated, incl. metadata *)
  pages : (int64, unit) Hashtbl.t; (* distinct virtual pages touched *)
}

let create () =
  {
    refs = 0;
    bytes = 0;
    instrs = 0;
    extra_opt = 0;
    extra_pess = 0;
    syscalls = 0;
    storage = 0;
    pages = Hashtbl.create 4096;
  }

let touch_pages m addr size =
  let first = Int64.div addr 4096L in
  let last = Int64.div (Int64.add addr (Int64.of_int (max 1 size - 1))) 4096L in
  let rec go p =
    if Int64.compare p last <= 0 then begin
      if not (Hashtbl.mem m.pages p) then Hashtbl.add m.pages p ();
      go (Int64.add p 1L)
    end
  in
  go first

(* Record one memory access (data or metadata). *)
let access m addr size =
  m.refs <- m.refs + 1;
  m.bytes <- m.bytes + size;
  touch_pages m addr size

let pages m = Hashtbl.length m.pages
let instrs_opt m = m.instrs + m.extra_opt
let instrs_pess m = m.instrs + m.extra_pess

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

let pct base v =
  if base = 0 then 0.0 else 100.0 *. (float_of_int v -. float_of_int base) /. float_of_int base

(* Normalized overhead of [m] against the [baseline] run. *)
let overhead ~name ~baseline m =
  {
    name;
    o_pages = pct (pages baseline) (pages m);
    o_bytes = pct baseline.bytes m.bytes;
    o_refs = pct baseline.refs m.refs;
    o_instr_opt = pct (instrs_opt baseline) (instrs_opt m);
    o_instr_pess = pct (instrs_pess baseline) (instrs_pess m);
    syscall_count = m.syscalls;
    storage_bytes = m.storage;
  }
