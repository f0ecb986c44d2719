(* The CHERI machine: BERI's MIPS64 pipeline with the CP2 capability
   coprocessor (Figure 2), an in-order single-issue execution model with a
   cycle cost of one per instruction plus memory-hierarchy penalties.

   Privilege structure: user code runs *simulated* (fetched, decoded, and
   executed from the memory image); the kernel is a *native* model — an
   OCaml callback invoked on every exception, mirroring how the paper's
   FreeBSD kernel sits below the user program.  The callback inspects and
   mutates the architectural state, then resumes or halts.

   Addressing (Section 4.1): legacy MIPS loads and stores are implicitly
   offset via capability register 0 (C0) and bounded by it; instruction
   fetch is validated against PCC.  Capability-relative accesses name their
   capability register explicitly. *)

open Beri

type exn_ctx = { exc : Cp0.exc; victim_pc : int64 }

(* What the kernel tells the machine to do after handling an exception. *)
type kernel_action =
  | Resume_at of int64 (* continue execution at this PC *)
  | Halt of int (* stop the machine with this exit code *)
  | Fatal (* the kernel cannot handle it: [run_result] reports [Trap_unhandled] *)

exception Halted of int

(* Raised by [step] when the kernel returns [Fatal]; [run_result] catches
   it and turns it into a [Trap_unhandled] result with a diagnostic
   snapshot. *)
exception Unhandled of exn_ctx

(* Raised internally while executing one instruction; [step] catches it. *)
exception Exn of Cp0.exc * int64 (* exception, bad virtual address *)

(* Capability width: the 256-bit research format or the 128-bit
   compressed format of Section 4.1 (the ablation of Section 8's
   "CHERI will benefit from capability compression"). *)
type cap_width = W256 | W128

(* Interpreter engine.  [Plain] retires one instruction per [step];
   [Superblock] additionally translates hot straight-line regions into
   pre-decoded micro-op arrays executed by a tight loop that charges the
   same architectural costs per element.  The two engines are
   architecturally identical — every counter, trap, and observable store
   matches bit for bit — so the choice is a host-speed knob only. *)
type engine = Plain | Superblock

let engine_to_string = function Plain -> "plain" | Superblock -> "superblock"

let engine_of_string = function
  | "plain" -> Some Plain
  | "superblock" -> Some Superblock
  | _ -> None

type config = {
  mem_size : int;
  hierarchy : Mem.Hierarchy.config;
  mult_cycles : int;
  div_cycles : int;
  cap_width : cap_width;
}

let default_config =
  {
    mem_size = 64 * 1024 * 1024;
    hierarchy = Mem.Hierarchy.default_config;
    mult_cycles = 4;
    div_cycles = 32;
    cap_width = W256;
  }

type t = {
  config : config;
  regs : Regs.t;
  caps : Cap.Capability.t array; (* 32 capability registers; index 0 = C0 *)
  mutable pcc : Cap.Capability.t;
  pc_cell : Bytes.t;
      (* the PC, unboxed in 8 bytes like the register image; read and
         written through [pc]/[set_pc] *)
  cp0 : Cp0.t;
  phys : Mem.Phys.t;
  tags : Mem.Tags.t;
  hier : Mem.Hierarchy.t;
  mutable cycles : int;
  mutable instret : int;
  mutable ll_bit : bool;
  mutable ll_addr : int64;
  mutable kernel : t -> exn_ctx -> kernel_action;
  mutable on_trace : t -> Insn.marker -> int64 -> int64 -> unit;
  mutable on_step : (t -> unit) option;
      (* called before each instruction; [None] (the default) keeps the
         hot path free of any per-step work.  Fault injectors hook here,
         and may write any architectural state: while a hook is set the
         superblock engine retires through [step] alone. *)
  mutable probe : Obs.Probe.t option;
      (* observability hook (lib/obs): instruction classification, PC
         sampling, and shadow-call-stack tracking.  [None] (the default)
         costs one match per step and nothing else.  A probe runs inside
         superblocks, whose fetch checks are hoisted per block, so it
         must never write architectural state or the cycle count; probed
         and unprobed runs are then architecturally identical. *)
  mutable on_store : (int64 -> int -> int64 -> unit) option;
      (* store-stream observer: [f addr kind payload] after every retired
         store.  [kind] is the access width in bytes for a scalar store;
         0 marks a capability store, whose payload is a digest of the
         stored capability's architectural fields ([cap_digest]).  [None]
         (the default) costs one match per store.  Like the probe it runs
         inside superblocks, so it must not write architectural state.
         The differential fuzzer diffs this stream across capability
         widths, so the payload must not depend on the in-memory image
         format. *)
  mutable timing : bool; (* drive the cache/TLB model (off = fast functional mode) *)
  mutable stores : int; (* retired stores, of any width (hang-detector fuel) *)
  mutable kernel_entries : int; (* exceptions dispatched to the kernel *)
  (* Decoded-instruction cache: direct-mapped on [pc lsr 2], tagged with
     the full (int) PC, -1 = empty.  Purely an interpreter optimisation:
     the architectural I-fetch (PCC check, TLB, I-cache model) still
     happens every step; only binary decode is memoized.  A conflicting
     PC simply takes the full fetch-and-decode path, which charges the
     same architectural costs — so collisions affect host speed only,
     never simulated counters.  Invalidated on [invalidate_icache] (the
     loader calls it). *)
  decode_pc : int array;
  decode_insn : Insn.t array;
  decode_log : int array;
  mutable decode_fills : int;
      (* the PCs of the first [fill_log_len] decode-cache fills since the
         last [invalidate_icache], which resets just those slots and their
         [code_pages] flags; more fills than that fall back to a full
         refill *)
  (* Superblock tier above the decode cache: hot straight-line regions
     translated into pre-decoded arrays of micro-ops ([sb_code], tagged by
     head PC in [sb_pc], -1 = empty) and executed by a tight loop.  Blocks
     are formed *exclusively from decode-cache-resident entries* — so a
     translation can never observe instruction bytes the plain engine
     would not — and are retired by [invalidate_icache] plus a store
     snoop ([sb_snoop]): any store landing inside a translated region
     flushes the tier, after which re-translation sees exactly the decode
     cache the plain engine would.  Host-side only; architectural
     behaviour is identical under both engines. *)
  mutable engine : engine;
  sb_pc : int array;
  sb_code : Insn.t array array;
  sb_log : int array;
  mutable sb_pins : int; (* [decode_log]'s counterpart for superblock slots *)
  sb_snoop : Mem.Snoop.t;
  (* Byte-per-page map of every physical page the decode cache has been
     filled from since the last [invalidate_icache].  Superblocks are
     formed exclusively from decode-resident entries, so the map also
     covers every translated region.  [restore] consults it: a rewound
     page flagged here may hold bytes some warm decode entry was formed
     from, so the warm tiers are invalidated — the SMC-coherence
     contract extended across checkpoint/restore.  (Page-granular, not a
     convex hull like [sb_snoop]: the hull of code regions would span
     the data pages between them and false-positive on every chunk's
     mailbox writes.) *)
  code_pages : Bytes.t;
  mutable sb_translations : int; (* superblocks formed (host counter) *)
  mutable sb_dispatches : int; (* block entries (host counter) *)
  mutable sb_retired : int; (* instructions retired inside blocks *)
}

(* 2^14 slots x 4-byte insns = direct coverage of 64 KB of code, far more
   than any workload's hot loops. *)
let decode_slots = 1 lsl 14

let decode_mask = decode_slots - 1

(* Superblock table: direct-mapped on the head PC.  Heads are branch
   targets and fall-throughs after control transfers — far fewer than
   instructions — so 2^12 slots cover every workload's hot region set. *)
let sb_slots = 1 lsl 12

let sb_mask = sb_slots - 1

(* Longest straight-line run a single block may cover.  Long enough that
   real basic blocks never split; short enough that a block is always a
   bounded unit of work between budget/watchdog checks. *)
let max_sb_len = 64

(* Fills logged between invalidations.  A fuzz program fills a few dozen
   decode slots and pins fewer superblocks; a workload that fills more
   has run long enough that one full refill is noise. *)
let fill_log_len = 1024

(* The reset kernel: a bare machine treats any syscall as "exit 0" and has
   no handler for anything else.  Unhandled exceptions stop the machine
   with a structured [Trap_unhandled] outcome (carrying a state snapshot)
   rather than tearing the process down with [Failure]. *)
let default_kernel _t ctx = match ctx.exc with Cp0.Syscall -> Halt 0 | _ -> Fatal

let create ?(config = default_config) () =
  {
    config;
    regs = Regs.create ();
    caps = Array.make 32 Cap.Capability.almighty;
    pcc = Cap.Capability.almighty;
    pc_cell = Bytes.make 8 '\000';
    cp0 = Cp0.create ();
    phys = Mem.Phys.create ~size_bytes:config.mem_size;
    tags =
      Mem.Tags.create
        ~line_bytes:(match config.cap_width with W256 -> 32 | W128 -> 16)
        ~mem_size:config.mem_size ();
    hier = Mem.Hierarchy.create ~config:config.hierarchy ();
    cycles = 0;
    instret = 0;
    ll_bit = false;
    ll_addr = 0L;
    kernel = default_kernel;
    on_trace = (fun _ _ _ _ -> ());
    on_step = None;
    probe = None;
    on_store = None;
    timing = true;
    stores = 0;
    kernel_entries = 0;
    decode_pc = Array.make decode_slots (-1);
    decode_insn = Array.make decode_slots Insn.Syscall;
    decode_log = Array.make fill_log_len 0;
    decode_fills = 0;
    engine = Superblock;
    sb_pc = Array.make sb_slots (-1);
    sb_code = Array.make sb_slots [||];
    sb_log = Array.make fill_log_len 0;
    sb_pins = 0;
    sb_snoop = Mem.Snoop.create ();
    code_pages = Bytes.make (max 1 ((config.mem_size + 4095) lsr 12)) '\000';
    sb_translations = 0;
    sb_dispatches = 0;
    sb_retired = 0;
  }

let set_kernel t f = t.kernel <- f
let set_engine t e = t.engine <- e
let engine t = t.engine
let set_trace_hook t f = t.on_trace <- f
let set_step_hook t f = t.on_step <- f
let set_store_hook t f = t.on_store <- f

(* Unboxed state access.  Inlined, so a PC or register value stays in a
   machine register until a call that is not inlined boxes it.  [i] is a
   register number, 0..31; slot 0 is never written, so it reads 0. *)
let[@inline] pc t = Bytes.get_int64_ne t.pc_cell 0
let[@inline] set_pc t v = Bytes.set_int64_ne t.pc_cell 0 v
let same_pc a b = Int64.equal (pc a) (pc b)
let[@inline] gpr t i = Regs.get64 t.regs (i lsl 3)
let[@inline] set_gpr t i v = if i <> 0 then Regs.set64 t.regs (i lsl 3) v
let[@inline] hi t = Regs.get64 t.regs Regs.hi_off
let[@inline] lo t = Regs.get64 t.regs Regs.lo_off
let[@inline] set_hi t v = Regs.set64 t.regs Regs.hi_off v
let[@inline] set_lo t v = Regs.set64 t.regs Regs.lo_off v

(* Attach (or detach, with [None]) the observability probe.  A probe that
   carries an attribution table additionally hooks the memory hierarchy
   and the tag table: the installed closures read the PC — which still
   holds the in-flight instruction's address during execute — so every
   miss, DRAM transfer, and tag write lands on the PC that caused it. *)
let set_probe t p =
  t.probe <- p;
  match Option.bind p Obs.Probe.attrib with
  | Some a ->
      t.hier.Mem.Hierarchy.on_event <-
        Some (fun ev ~addr -> Obs.Attrib.record a ~pc:(pc t) ~addr ev);
      Mem.Tags.set_on_write t.tags
        (Some (fun ~set ~addr -> Obs.Attrib.record a ~pc:(pc t) ~addr (Obs.Attrib.Tag_write set)))
  | None ->
      t.hier.Mem.Hierarchy.on_event <- None;
      Mem.Tags.set_on_write t.tags None
let set_timing t b = t.timing <- b

let cap t i = t.caps.(i)
let set_cap t i c = t.caps.(i) <- c

(* Convenience: identity-map a virtual range with full permissions. *)
let map_identity t ~vaddr ~len prot = Mem.Tlb.map t.hier.Mem.Hierarchy.tlb ~vaddr ~len prot

let charge t n = if t.timing then t.cycles <- t.cycles + n

(* Retire every superblock.  Called by [invalidate_icache] and by the
   store snoop when a store lands inside a translated region (the
   SMC-coherence contract: translations must never outlive a write to
   the bytes they were formed from — stale *decode-cache* entries are the
   plain engine's documented behaviour until [invalidate_icache], and
   re-translation reproduces exactly that, but a block pinned before the
   store could otherwise disagree with what the plain engine's
   direct-mapped cache would serve after a conflict eviction). *)
let flush_superblocks t =
  if t.sb_pins > fill_log_len then Array.fill t.sb_pc 0 sb_slots (-1)
  else
    for k = 0 to t.sb_pins - 1 do
      Array.unsafe_set t.sb_pc (Array.unsafe_get t.sb_log k) (-1)
    done;
  t.sb_pins <- 0;
  Mem.Snoop.clear t.sb_snoop

(* Store snoop: probe the coherence filter; on intersection with any
   translated region, retire the tier.  Two integer compares per store in
   the common (miss) case. *)
let snoop_store t ~addr ~size =
  if Mem.Snoop.hit t.sb_snoop ~addr:(Int64.to_int addr) ~size then flush_superblocks t

(* --- diagnostic snapshots ---------------------------------------------- *)

(* A self-contained picture of the architectural state, attached to every
   abnormal [run_result] outcome so campaigns and tests get a diagnosable
   failure instead of a bare backtrace. *)
type snapshot = {
  snap_cause : string;
  snap_pc : int64;
  snap_exc : Cp0.exc option; (* last exception dispatched, if any *)
  snap_badvaddr : int64;
  snap_capcause : Cap.Cause.t;
  snap_capreg : int;
  snap_insn_word : int option; (* raw instruction word at PC, if readable *)
  snap_gprs : int64 array;
  snap_hi : int64;
  snap_lo : int64;
  snap_caps : Cap.Capability.t array;
  snap_pcc : Cap.Capability.t;
  snap_instret : int64;
  snap_cycles : int64;
}

let snapshot ?(cause = "snapshot") t =
  {
    snap_cause = cause;
    snap_pc = pc t;
    snap_exc = t.cp0.Cp0.last_exc;
    snap_badvaddr = t.cp0.Cp0.badvaddr;
    snap_capcause = t.cp0.Cp0.capcause;
    snap_capreg = t.cp0.Cp0.capcause_reg;
    snap_insn_word = (try Some (Mem.Phys.read_u32 t.phys (pc t)) with _ -> None);
    snap_gprs = Array.init 32 (fun i -> Regs.get t.regs i);
    snap_hi = Regs.hi t.regs;
    snap_lo = Regs.lo t.regs;
    snap_caps = Array.copy t.caps;
    snap_pcc = t.pcc;
    snap_instret = Int64.of_int t.instret;
    snap_cycles = Int64.of_int t.cycles;
  }

let pp_snapshot ppf s =
  Fmt.pf ppf "@[<v>%s@,pc=0x%Lx  instret=%Ld  cycles=%Ld" s.snap_cause s.snap_pc
    s.snap_instret s.snap_cycles;
  (match s.snap_insn_word with
  | Some w -> Fmt.pf ppf "@,insn=0x%08x" w
  | None -> Fmt.pf ppf "@,insn=<unreadable>");
  (match s.snap_exc with
  | Some e ->
      Fmt.pf ppf "@,cause=%s  badvaddr=0x%Lx" (Cp0.exc_to_string e) s.snap_badvaddr;
      (match e with
      | Cp0.Cp2 _ ->
          Fmt.pf ppf "  capcause=%s/C%d" (Cap.Cause.to_string s.snap_capcause) s.snap_capreg
      | _ -> ())
  | None -> ());
  Array.iteri
    (fun i v -> if not (Int64.equal v 0L) then Fmt.pf ppf "@,r%-2d = 0x%Lx" i v)
    s.snap_gprs;
  Array.iteri
    (fun i c ->
      if Cap.Capability.tag c && not (Cap.Capability.equal c Cap.Capability.almighty) then
        Fmt.pf ppf "@,c%-2d = %a" i Cap.Capability.pp c)
    s.snap_caps;
  Fmt.pf ppf "@,pcc = %a@]" Cap.Capability.pp s.snap_pcc

(* How a [run_result] ended.  Every abnormal outcome carries a snapshot; none of
   them raises, so campaign drivers can classify millions of runs without
   ever seeing a [Failure _] backtrace. *)
type run_result =
  | Exited of int (* the kernel halted the machine with this exit code *)
  | Trap_unhandled of exn_ctx * snapshot (* no handler accepted the exception *)
  | Budget_exhausted of snapshot (* [max_insns] spent without halting *)
  | Watchdog_hang of snapshot (* architectural state repeated: a provable hang *)

(* Conventional process-style exit codes for abnormal outcomes (the shell's
   124 = timed out, 125 = watchdog, 134 = SIGABRT conventions). *)
let exit_code = function
  | Exited code -> code
  | Budget_exhausted _ -> 124
  | Watchdog_hang _ -> 125
  | Trap_unhandled _ -> 134

let pp_run_result ppf = function
  | Exited code -> Fmt.pf ppf "exited %d" code
  | Trap_unhandled (ctx, s) ->
      Fmt.pf ppf "@[<v>unhandled trap: %s at pc=0x%Lx@,%a@]" (Cp0.exc_to_string ctx.exc)
        ctx.victim_pc pp_snapshot s
  | Budget_exhausted s -> Fmt.pf ppf "@[<v>instruction budget exhausted@,%a@]" pp_snapshot s
  | Watchdog_hang s -> Fmt.pf ppf "@[<v>watchdog: machine hang@,%a@]" pp_snapshot s

(* --- 64-bit helpers ---------------------------------------------------- *)

(* Inlined, like the effective-address and branch-target helpers below,
   so their results stay unboxed inside [execute]. *)
let[@inline] sext32 v = Int64.of_int32 (Int64.to_int32 v)
let[@inline] sext16 v = if v land 0x8000 <> 0 then Int64.of_int (v - 0x10000) else Int64.of_int v
let[@inline] bool64 b = if b then 1L else 0L

(* --- memory access ----------------------------------------------------- *)

(* Access sizes are 1/2/4/8/16/32; map them to static [Int64] constants so
   [check_cap] doesn't allocate a fresh box per check (twice per
   instruction: fetch + data). *)
let size64 = function
  | 1 -> 1L
  | 2 -> 2L
  | 4 -> 4L
  | 8 -> 8L
  | 16 -> 16L
  | 32 -> 32L
  | n -> Int64.of_int n

let check_cap t ~reg c access ~addr ~size =
  match Cap.Capability.check_access c access ~addr ~size:(size64 size) with
  | Ok () -> ()
  | Error cause ->
      t.cp0.Cp0.capcause <- cause;
      t.cp0.Cp0.capcause_reg <- reg;
      raise (Exn (Cp0.Cp2 cause, addr))

(* Sizes are powers of two and addresses sit below 2^63, so alignment is a
   native-int mask — no boxed [Int64.rem]. *)
let check_alignment addr size store =
  if size > 1 && Int64.to_int addr land (size - 1) <> 0 then
    raise (Exn ((if store then Cp0.Address_error_store else Cp0.Address_error_load), addr))

let check_page t addr ~write ~size =
  let tlb = t.hier.Mem.Hierarchy.tlb in
  let prot = Mem.Tlb.protection tlb addr in
  if not prot.Mem.Tlb.valid then
    raise (Exn ((if write then Cp0.Tlb_store else Cp0.Tlb_load), addr));
  if write && not prot.Mem.Tlb.writable then raise (Exn (Cp0.Tlb_store, addr));
  (* Accesses must not straddle a page boundary in this model; our ABI
     aligns all scalars naturally so this cannot occur for valid code. *)
  ignore size;
  prot

let data_penalty t ~addr ~size ~write =
  if t.timing then charge t (Mem.Hierarchy.access_data t.hier ~addr ~size ~write)

(* Scalar load through an explicit capability [c] (register index [reg])
   into register [rd].  The register is written inside the [try]: a value
   returned across it would be boxed. *)
let load_scalar t ~reg c ~addr ~width ~unsigned rd =
  let size = Insn.width_bytes width in
  check_alignment addr size false;
  check_cap t ~reg c Cap.Capability.Load ~addr ~size;
  ignore (check_page t addr ~write:false ~size);
  data_penalty t ~addr ~size ~write:false;
  try
    match (width, unsigned) with
    | Insn.B, true -> set_gpr t rd (Int64.of_int (Mem.Phys.read_u8 t.phys addr))
    | Insn.B, false ->
        let v = Mem.Phys.read_u8 t.phys addr in
        set_gpr t rd (Int64.of_int (if v land 0x80 <> 0 then v - 0x100 else v))
    | Insn.H, true -> set_gpr t rd (Int64.of_int (Mem.Phys.read_u16 t.phys addr))
    | Insn.H, false -> set_gpr t rd (sext16 (Mem.Phys.read_u16 t.phys addr))
    | Insn.W, true -> set_gpr t rd (Int64.of_int (Mem.Phys.read_u32 t.phys addr))
    | Insn.W, false -> set_gpr t rd (sext32 (Int64.of_int (Mem.Phys.read_u32 t.phys addr)))
    | Insn.D, _ -> set_gpr t rd (Mem.Phys.read_u64 t.phys addr)
  with Mem.Phys.Bus_error a -> raise (Exn (Cp0.Address_error_load, a))

(* The write and bookkeeping of a scalar store whose checks have passed.
   Inlined into both arms of [store_scalar], so [v] is unboxed on the
   hook-free path: only a D-width write boxes it, for [Mem.Phys]. *)
let[@inline] write_scalar t ~addr ~size ~width v =
  (try
     match width with
     | Insn.B -> Mem.Phys.write_u8 t.phys addr (Int64.to_int v land 0xFF)
     | Insn.H -> Mem.Phys.write_u16 t.phys addr (Int64.to_int v land 0xFFFF)
     | Insn.W -> Mem.Phys.write_u32 t.phys addr (Int64.to_int v land 0xFFFF_FFFF)
     | Insn.D -> Mem.Phys.write_u64 t.phys addr v
   with Mem.Phys.Bus_error a -> raise (Exn (Cp0.Address_error_store, a)));
  t.stores <- t.stores + 1;
  snoop_store t ~addr ~size;
  (* A general-purpose store clears the tag of the overlapped line(s):
     the architectural rule that makes in-memory capabilities unforgeable. *)
  Mem.Tags.clear_range t.tags addr size;
  if t.ll_bit && Mem.Tags.line_index t.tags addr = Mem.Tags.line_index t.tags t.ll_addr
  then t.ll_bit <- false

(* Scalar store of register [rs] through capability [c]. *)
let store_scalar t ~reg c ~addr ~width rs =
  let size = Insn.width_bytes width in
  check_alignment addr size true;
  check_cap t ~reg c Cap.Capability.Store ~addr ~size;
  ignore (check_page t addr ~write:true ~size);
  data_penalty t ~addr ~size ~write:true;
  match t.on_store with
  | None -> write_scalar t ~addr ~size ~width (gpr t rs)
  | Some f ->
      (* One box, shared by a D-width write and the hook. *)
      let v = Sys.opaque_identity (gpr t rs) in
      write_scalar t ~addr ~size ~width v;
      f addr size v

let cap_size t = match t.config.cap_width with W256 -> 32 | W128 -> 16

(* Digest of a stored capability's architectural fields: what the
   store-stream observer sees for a capability store.  Deliberately built
   from the register-file view (not the memory image, which is 32 bytes
   on W256 and 16 on W128), so equal capabilities stored on either width
   produce equal payloads.  An untagged store collapses to a constant:
   its field bits are dead (any dereference traps), and on the compressed
   machine they are format-dependent residue a cross-width diff must not
   see. *)
let cap_digest v =
  if not (Cap.Capability.tag v) then 5L
  else begin
    let mix h x =
      let h = Int64.mul (Int64.logxor h x) 0xFF51_AFD7_ED55_8CCDL in
      Int64.logxor h (Int64.shift_right_logical h 33)
    in
    let h = mix 0x9E37_79B9_7F4A_7C15L (Cap.Capability.base v) in
    let h = mix h (Cap.Capability.length v) in
    let h = mix h (Int64.of_int (Cap.Perms.to_int (Cap.Capability.perms v))) in
    let h = mix h (Int64.of_int (Cap.Capability.otype v)) in
    mix h (if Cap.Capability.is_sealed v then 7L else 11L)
  end

let load_cap t ~reg c ~addr =
  let size = cap_size t in
  check_alignment addr size false;
  check_cap t ~reg c Cap.Capability.Load_cap ~addr ~size;
  let prot = check_page t addr ~write:false ~size in
  data_penalty t ~addr ~size ~write:false;
  try
    let tag = Mem.Tags.get t.tags addr in
    (* The CHERI page-table extension: a page without the capability-load
       bit yields data with the tag stripped (Section 6.1), giving the OS
       shared mappings that cannot carry capabilities between processes. *)
    let tag = tag && prot.Mem.Tlb.cap_load in
    let c =
      match t.config.cap_width with
      | W256 ->
          (* Word-granule image read: one bounds check, four word loads,
             no intermediate buffer. *)
          let i = Mem.Phys.image_index t.phys addr 32 in
          Cap.Capability.of_words ~tag
            ~flags:(Mem.Phys.get_u64 t.phys i)
            ~reserved:(Mem.Phys.get_u64 t.phys (i + 8))
            ~base:(Mem.Phys.get_u64 t.phys (i + 16))
            ~length:(Mem.Phys.get_u64 t.phys (i + 24))
      | W128 ->
          Cap.Cap128.decompress ~tag (Cap.Cap128.of_bytes (Mem.Phys.read_bytes t.phys addr 16))
    in
    (match t.probe with
    | Some p when Cap.Capability.tag c ->
        Obs.Probe.note_cap_bounds p ~len:(Cap.Capability.length c)
    | _ -> ());
    c
  with Mem.Phys.Bus_error a -> raise (Exn (Cp0.Address_error_load, a))

let store_cap t ~reg c ~addr v =
  let size = cap_size t in
  check_alignment addr size true;
  check_cap t ~reg c Cap.Capability.Store_cap ~addr ~size;
  let prot = check_page t addr ~write:true ~size in
  if Cap.Capability.tag v && not prot.Mem.Tlb.cap_store then begin
    t.cp0.Cp0.capcause <- Cap.Cause.Permit_store_capability_violation;
    t.cp0.Cp0.capcause_reg <- reg;
    raise (Exn (Cp0.Cp2 Cap.Cause.Permit_store_capability_violation, addr))
  end;
  (match t.config.cap_width with
  | W256 ->
      data_penalty t ~addr ~size ~write:true;
      (* Word-granule image write: one bounds check, four word stores,
         no intermediate buffer.  (The 256-bit image cannot fail to
         encode, so materialising it after the penalty charge changes
         nothing observable.) *)
      (try
         let i = Mem.Phys.image_index t.phys addr 32 in
         Mem.Phys.set_u64 t.phys i (Cap.Capability.flags_word v);
         Mem.Phys.set_u64 t.phys (i + 8) (Cap.Capability.reserved_word v);
         Mem.Phys.set_u64 t.phys (i + 16) (Cap.Capability.base v);
         Mem.Phys.set_u64 t.phys (i + 24) (Cap.Capability.length v)
       with Mem.Phys.Bus_error a -> raise (Exn (Cp0.Address_error_store, a)))
  | W128 ->
      (* The compressed machine refuses to store a capability whose
         bounds the 128-bit format cannot represent exactly — checked
         before any penalty is charged, as with a buffered image. *)
      let image =
        match Cap.Cap128.compress v with
        | Ok c -> Cap.Cap128.to_bytes c
        | Error cause ->
            t.cp0.Cp0.capcause <- cause;
            t.cp0.Cp0.capcause_reg <- reg;
            raise (Exn (Cp0.Cp2 cause, addr))
      in
      data_penalty t ~addr ~size ~write:true;
      (try Mem.Phys.write_bytes t.phys addr image
       with Mem.Phys.Bus_error a -> raise (Exn (Cp0.Address_error_store, a))));
  t.stores <- t.stores + 1;
  snoop_store t ~addr ~size;
  (match t.probe with
  | Some p when Cap.Capability.tag v ->
      Obs.Probe.note_cap_bounds p ~len:(Cap.Capability.length v)
  | _ -> ());
  Mem.Tags.set t.tags addr (Cap.Capability.tag v);
  match t.on_store with Some f -> f addr 0 (cap_digest v) | None -> ()

(* --- CP2 helpers -------------------------------------------------------- *)

let cap_op t ~reg result =
  match result with
  | Ok c -> c
  | Error cause ->
      t.cp0.Cp0.capcause <- cause;
      t.cp0.Cp0.capcause_reg <- reg;
      raise (Exn (Cp0.Cp2 cause, 0L))

(* Effective address of a capability-relative access: base + index + imm. *)
let[@inline] cap_ea c rt_val imm =
  Int64.add (Cap.Capability.base c) (Int64.add rt_val (Int64.of_int imm))

(* Effective address of a legacy access: C0-relative (Section 4.1). *)
let[@inline] legacy_ea t base offset =
  let va = Int64.add (gpr t base) (sext16 (offset land 0xFFFF)) in
  Int64.add (Cap.Capability.base t.caps.(0)) va

let[@inline] branch_target pc offset = Int64.add pc (Int64.of_int (4 + (offset * 4)))

(* --- the interpreter ----------------------------------------------------- *)

let[@inline] overflow_add a b =
  let s = Int64.add a b in
  (Int64.logxor s a) < 0L && (Int64.logxor s b) < 0L

(* Execute one decoded instruction and store the next PC — last, because
   the probe and the attribution closures read the in-flight PC while the
   instruction executes.  The next PC is let-bound before [set_pc] so that
   ocamlopt keeps every arm unboxed: passed straight to an inlined
   function, the match would be boxed in every arm, since some arms return
   a record field or another module's result. *)
let execute t insn =
  let pc = pc t in
  let next = Int64.add pc 4L in
  let next_pc =
    match insn with
    | Insn.Add (d, s, u) ->
        let a = sext32 (gpr t s) and b = sext32 (gpr t u) in
        let sum = Int64.add a b in
        (* 32-bit signed overflow: the 64-bit sum of sign-extended operands
           falls outside the 32-bit range *)
        if not (Int64.equal (sext32 sum) sum) then raise (Exn (Cp0.Overflow, 0L));
        set_gpr t d sum;
        next
    | Insn.Addu (d, s, u) -> set_gpr t d (sext32 (Int64.add (gpr t s) (gpr t u))); next
    | Insn.Dadd (d, s, u) ->
        if overflow_add (gpr t s) (gpr t u) then raise (Exn (Cp0.Overflow, 0L));
        set_gpr t d (Int64.add (gpr t s) (gpr t u));
        next
    | Insn.Daddu (d, s, u) -> set_gpr t d (Int64.add (gpr t s) (gpr t u)); next
    | Insn.Sub (d, s, u) ->
        let diff = Int64.sub (sext32 (gpr t s)) (sext32 (gpr t u)) in
        if not (Int64.equal (sext32 diff) diff) then raise (Exn (Cp0.Overflow, 0L));
        set_gpr t d diff;
        next
    | Insn.Subu (d, s, u) -> set_gpr t d (sext32 (Int64.sub (gpr t s) (gpr t u))); next
    | Insn.Dsubu (d, s, u) -> set_gpr t d (Int64.sub (gpr t s) (gpr t u)); next
    | Insn.And (d, s, u) -> set_gpr t d (Int64.logand (gpr t s) (gpr t u)); next
    | Insn.Or (d, s, u) -> set_gpr t d (Int64.logor (gpr t s) (gpr t u)); next
    | Insn.Xor (d, s, u) -> set_gpr t d (Int64.logxor (gpr t s) (gpr t u)); next
    | Insn.Nor (d, s, u) -> set_gpr t d (Int64.lognot (Int64.logor (gpr t s) (gpr t u))); next
    | Insn.Slt (d, s, u) -> set_gpr t d (bool64 (Int64.compare (gpr t s) (gpr t u) < 0)); next
    | Insn.Sltu (d, s, u) -> set_gpr t d (bool64 (Int64.unsigned_compare (gpr t s) (gpr t u) < 0)); next
    | Insn.Addiu (r, s, i) -> set_gpr t r (sext32 (Int64.add (gpr t s) (sext16 (i land 0xFFFF)))); next
    | Insn.Daddiu (r, s, i) -> set_gpr t r (Int64.add (gpr t s) (sext16 (i land 0xFFFF))); next
    | Insn.Andi (r, s, i) -> set_gpr t r (Int64.logand (gpr t s) (Int64.of_int (i land 0xFFFF))); next
    | Insn.Ori (r, s, i) -> set_gpr t r (Int64.logor (gpr t s) (Int64.of_int (i land 0xFFFF))); next
    | Insn.Xori (r, s, i) -> set_gpr t r (Int64.logxor (gpr t s) (Int64.of_int (i land 0xFFFF))); next
    | Insn.Slti (r, s, i) -> set_gpr t r (bool64 (Int64.compare (gpr t s) (sext16 (i land 0xFFFF)) < 0)); next
    | Insn.Sltiu (r, s, i) ->
        set_gpr t r (bool64 (Int64.unsigned_compare (gpr t s) (sext16 (i land 0xFFFF)) < 0));
        next
    | Insn.Lui (r, i) -> set_gpr t r (sext32 (Int64.shift_left (Int64.of_int (i land 0xFFFF)) 16)); next
    | Insn.Sll (d, s, sa) -> set_gpr t d (sext32 (Int64.shift_left (gpr t s) sa)); next
    | Insn.Srl (d, s, sa) ->
        set_gpr t d (sext32 (Int64.shift_right_logical (Int64.logand (gpr t s) 0xFFFF_FFFFL) sa));
        next
    | Insn.Sra (d, s, sa) -> set_gpr t d (sext32 (Int64.shift_right (sext32 (gpr t s)) sa)); next
    | Insn.Dsll (d, s, sa) -> set_gpr t d (Int64.shift_left (gpr t s) sa); next
    | Insn.Dsrl (d, s, sa) -> set_gpr t d (Int64.shift_right_logical (gpr t s) sa); next
    | Insn.Dsra (d, s, sa) -> set_gpr t d (Int64.shift_right (gpr t s) sa); next
    | Insn.Dsll32 (d, s, sa) -> set_gpr t d (Int64.shift_left (gpr t s) (sa + 32)); next
    | Insn.Dsrl32 (d, s, sa) -> set_gpr t d (Int64.shift_right_logical (gpr t s) (sa + 32)); next
    | Insn.Sllv (d, u, s) -> set_gpr t d (sext32 (Int64.shift_left (gpr t u) (Int64.to_int (gpr t s) land 31))); next
    | Insn.Srlv (d, u, s) ->
        set_gpr t d (sext32 (Int64.shift_right_logical (Int64.logand (gpr t u) 0xFFFF_FFFFL)
                        (Int64.to_int (gpr t s) land 31)));
        next
    | Insn.Srav (d, u, s) -> set_gpr t d (sext32 (Int64.shift_right (sext32 (gpr t u)) (Int64.to_int (gpr t s) land 31))); next
    | Insn.Dsllv (d, u, s) -> set_gpr t d (Int64.shift_left (gpr t u) (Int64.to_int (gpr t s) land 63)); next
    | Insn.Dsrlv (d, u, s) -> set_gpr t d (Int64.shift_right_logical (gpr t u) (Int64.to_int (gpr t s) land 63)); next
    | Insn.Dsrav (d, u, s) -> set_gpr t d (Int64.shift_right (gpr t u) (Int64.to_int (gpr t s) land 63)); next
    | Insn.Mult (s, u) ->
        charge t t.config.mult_cycles;
        let p = Int64.mul (sext32 (gpr t s)) (sext32 (gpr t u)) in
        set_lo t (sext32 p);
        set_hi t (sext32 (Int64.shift_right p 32));
        next
    | Insn.Multu (s, u) ->
        charge t t.config.mult_cycles;
        let a = Int64.logand (gpr t s) 0xFFFF_FFFFL and b = Int64.logand (gpr t u) 0xFFFF_FFFFL in
        let p = Int64.mul a b in
        set_lo t (sext32 p);
        set_hi t (sext32 (Int64.shift_right_logical p 32));
        next
    | Insn.Dmult (s, u) | Insn.Dmultu (s, u) ->
        charge t t.config.mult_cycles;
        (* 128-bit product truncated to LO; HI receives the (approximate) high
           word — full 128-bit multiply is not needed by any workload. *)
        set_lo t (Int64.mul (gpr t s) (gpr t u));
        set_hi t 0L;
        next
    | Insn.Div (s, u) ->
        charge t t.config.div_cycles;
        let a = sext32 (gpr t s) and b = sext32 (gpr t u) in
        if Int64.equal b 0L then begin
          set_lo t 0L;
          set_hi t 0L
        end
        else begin
          set_lo t (sext32 (Int64.div a b));
          set_hi t (sext32 (Int64.rem a b))
        end;
        next
    | Insn.Divu (s, u) ->
        charge t t.config.div_cycles;
        let a = Int64.logand (gpr t s) 0xFFFF_FFFFL and b = Int64.logand (gpr t u) 0xFFFF_FFFFL in
        if Int64.equal b 0L then begin
          set_lo t 0L;
          set_hi t 0L
        end
        else begin
          set_lo t (sext32 (Int64.unsigned_div a b));
          set_hi t (sext32 (Int64.unsigned_rem a b))
        end;
        next
    | Insn.Ddiv (s, u) ->
        charge t t.config.div_cycles;
        if Int64.equal (gpr t u) 0L then begin
          set_lo t 0L;
          set_hi t 0L
        end
        else begin
          set_lo t (Int64.div (gpr t s) (gpr t u));
          set_hi t (Int64.rem (gpr t s) (gpr t u))
        end;
        next
    | Insn.Ddivu (s, u) ->
        charge t t.config.div_cycles;
        if Int64.equal (gpr t u) 0L then begin
          set_lo t 0L;
          set_hi t 0L
        end
        else begin
          set_lo t (Int64.unsigned_div (gpr t s) (gpr t u));
          set_hi t (Int64.unsigned_rem (gpr t s) (gpr t u))
        end;
        next
    | Insn.Mfhi d -> set_gpr t d (hi t); next
    | Insn.Mflo d -> set_gpr t d (lo t); next
    | Insn.Mthi s -> set_hi t (gpr t s); next
    | Insn.Mtlo s -> set_lo t (gpr t s); next
    | Insn.Load (w, u, r, b, o) ->
        load_scalar t ~reg:0 t.caps.(0) ~addr:(legacy_ea t b o) ~width:w ~unsigned:u r;
        next
    | Insn.Store (w, r, b, o) ->
        store_scalar t ~reg:0 t.caps.(0) ~addr:(legacy_ea t b o) ~width:w r;
        next
    | Insn.Lld (r, b, o) ->
        let addr = legacy_ea t b o in
        load_scalar t ~reg:0 t.caps.(0) ~addr ~width:Insn.D ~unsigned:false r;
        t.ll_bit <- true;
        t.ll_addr <- addr;
        next
    | Insn.Scd (r, b, o) ->
        let addr = legacy_ea t b o in
        if t.ll_bit && Int64.equal addr t.ll_addr then begin
          store_scalar t ~reg:0 t.caps.(0) ~addr ~width:Insn.D r;
          t.ll_bit <- false;
          set_gpr t r 1L
        end
        else set_gpr t r 0L;
        next
    | Insn.J target ->
        Int64.logor (Int64.logand next 0xFFFF_FFFF_F000_0000L) (Int64.of_int (target * 4))
    | Insn.Jal target ->
        set_gpr t Regs.ra next;
        Int64.logor (Int64.logand next 0xFFFF_FFFF_F000_0000L) (Int64.of_int (target * 4))
    | Insn.Jr s -> gpr t s
    | Insn.Jalr (d, s) ->
        let dest = gpr t s in
        set_gpr t d next;
        dest
    | Insn.Beq (s, u, o) -> if Int64.equal (gpr t s) (gpr t u) then branch_target pc o else next
    | Insn.Bne (s, u, o) -> if not (Int64.equal (gpr t s) (gpr t u)) then branch_target pc o else next
    | Insn.Blez (s, o) -> if Int64.compare (gpr t s) 0L <= 0 then branch_target pc o else next
    | Insn.Bgtz (s, o) -> if Int64.compare (gpr t s) 0L > 0 then branch_target pc o else next
    | Insn.Bltz (s, o) -> if Int64.compare (gpr t s) 0L < 0 then branch_target pc o else next
    | Insn.Bgez (s, o) -> if Int64.compare (gpr t s) 0L >= 0 then branch_target pc o else next
    | Insn.Syscall -> raise (Exn (Cp0.Syscall, 0L))
    | Insn.Break -> raise (Exn (Cp0.Breakpoint, 0L))
    | Insn.Eret ->
        if not (Cp0.in_kernel_mode t.cp0) then raise (Exn (Cp0.Reserved_instruction, 0L));
        t.cp0.Cp0.exl <- false;
        t.cp0.Cp0.epc
    | Insn.Mfc0 (r, d) ->
        if not (Cp0.in_kernel_mode t.cp0) then raise (Exn (Cp0.Coprocessor_unusable, 0L));
        set_gpr t r (Cp0.read t.cp0 d);
        next
    | Insn.Mtc0 (r, d) ->
        if not (Cp0.in_kernel_mode t.cp0) then raise (Exn (Cp0.Coprocessor_unusable, 0L));
        Cp0.write t.cp0 d (gpr t r);
        next
    | Insn.Trace (m, a, b) ->
        t.on_trace t m (gpr t a) (gpr t b);
        next
    (* --- CP2 ----------------------------------------------------------- *)
    | Insn.CGetBase (d, cb) -> set_gpr t d (Cap.Capability.base t.caps.(cb)); next
    | Insn.CGetLen (d, cb) -> set_gpr t d (Cap.Capability.length t.caps.(cb)); next
    | Insn.CGetTag (d, cb) -> set_gpr t d (bool64 (Cap.Capability.tag t.caps.(cb))); next
    | Insn.CGetPerm (d, cb) ->
        set_gpr t d (Int64.of_int (Cap.Perms.to_int (Cap.Capability.perms t.caps.(cb))));
        next
    | Insn.CGetPCC (d, cd) ->
        t.caps.(cd) <- t.pcc;
        set_gpr t d pc;
        next
    | Insn.CGetCause d ->
        set_gpr t d
          (Int64.of_int
             ((Cap.Cause.code t.cp0.Cp0.capcause lsl 8) lor t.cp0.Cp0.capcause_reg));
        next
    | Insn.CIncBase (cd, cb, rt) ->
        t.caps.(cd) <- cap_op t ~reg:cb (Cap.Capability.inc_base t.caps.(cb) (gpr t rt));
        next
    | Insn.CSetLen (cd, cb, rt) ->
        t.caps.(cd) <- cap_op t ~reg:cb (Cap.Capability.set_len t.caps.(cb) (gpr t rt));
        next
    | Insn.CClearTag (cd, cb) ->
        t.caps.(cd) <- Cap.Capability.clear_tag t.caps.(cb);
        next
    | Insn.CAndPerm (cd, cb, rt) ->
        t.caps.(cd) <-
          cap_op t ~reg:cb
            (Cap.Capability.and_perm t.caps.(cb)
               (Cap.Perms.of_int (Int64.to_int (Int64.logand (gpr t rt) 0x7FFF_FFFFL))));
        next
    | Insn.CMove (cd, cb) ->
        t.caps.(cd) <- t.caps.(cb);
        next
    | Insn.CToPtr (rd, cb, ct) ->
        set_gpr t rd (Cap.Capability.to_ptr t.caps.(cb) ~relative_to:t.caps.(ct));
        next
    | Insn.CFromPtr (cd, cb, rt) ->
        t.caps.(cd) <- cap_op t ~reg:cb (Cap.Capability.from_ptr t.caps.(cb) (gpr t rt));
        next
    | Insn.CBTU (cb, o) ->
        if not (Cap.Capability.tag t.caps.(cb)) then branch_target pc o else next
    | Insn.CBTS (cb, o) ->
        if Cap.Capability.tag t.caps.(cb) then branch_target pc o else next
    | Insn.CLC (cd, cb, rt, i) ->
        let c = t.caps.(cb) in
        t.caps.(cd) <- load_cap t ~reg:cb c ~addr:(cap_ea c (gpr t rt) i);
        next
    | Insn.CSC (cs, cb, rt, i) ->
        let c = t.caps.(cb) in
        store_cap t ~reg:cb c ~addr:(cap_ea c (gpr t rt) i) t.caps.(cs);
        next
    | Insn.CLoad (w, u, rd, cb, rt, i) ->
        let c = t.caps.(cb) in
        load_scalar t ~reg:cb c ~addr:(cap_ea c (gpr t rt) i) ~width:w ~unsigned:u rd;
        next
    | Insn.CStore (w, rs, cb, rt, i) ->
        let c = t.caps.(cb) in
        store_scalar t ~reg:cb c ~addr:(cap_ea c (gpr t rt) i) ~width:w rs;
        next
    | Insn.CLLD (rd, cb) ->
        let c = t.caps.(cb) in
        let addr = Cap.Capability.base c in
        load_scalar t ~reg:cb c ~addr ~width:Insn.D ~unsigned:false rd;
        t.ll_bit <- true;
        t.ll_addr <- addr;
        next
    | Insn.CSCD (rd, rs, cb) ->
        let c = t.caps.(cb) in
        let addr = Cap.Capability.base c in
        if t.ll_bit && Int64.equal addr t.ll_addr then begin
          store_scalar t ~reg:cb c ~addr ~width:Insn.D rs;
          t.ll_bit <- false;
          set_gpr t rd 1L
        end
        else set_gpr t rd 0L;
        next
    | Insn.CJR cb ->
        let c = t.caps.(cb) in
        check_cap t ~reg:cb c Cap.Capability.Execute ~addr:(Cap.Capability.base c) ~size:4;
        t.pcc <- c;
        Cap.Capability.base c
    | Insn.CJALR (cd, cb) ->
        let c = t.caps.(cb) in
        check_cap t ~reg:cb c Cap.Capability.Execute ~addr:(Cap.Capability.base c) ~size:4;
        (* Link: derive a return capability whose base is the return point —
           a monotonic restriction of the current PCC. *)
        let delta = Int64.sub next (Cap.Capability.base t.pcc) in
        t.caps.(cd) <- cap_op t ~reg:cd (Cap.Capability.inc_base t.pcc delta);
        t.pcc <- c;
        Cap.Capability.base c
    | Insn.CSeal (cd, cs, ct) ->
        let authority = t.caps.(ct) in
        let ot = Int64.to_int (Int64.logand (Cap.Capability.base authority) 0xFF_FFFFL) in
        t.caps.(cd) <- cap_op t ~reg:cs (Cap.Capability.seal t.caps.(cs) ~authority ~otype:ot);
        next
    | Insn.CUnseal (cd, cs, ct) ->
        let authority = t.caps.(ct) in
        let ot = Int64.to_int (Int64.logand (Cap.Capability.base authority) 0xFF_FFFFL) in
        t.caps.(cd) <-
          cap_op t ~reg:cs (Cap.Capability.unseal t.caps.(cs) ~authority ~otype:ot);
        next
    | Insn.CCall (_, _) ->
        t.cp0.Cp0.capcause <- Cap.Cause.Call_trap;
        raise (Exn (Cp0.Cp2 Cap.Cause.Call_trap, 0L))
    | Insn.CReturn ->
        t.cp0.Cp0.capcause <- Cap.Cause.Return_trap;
        raise (Exn (Cp0.Cp2 Cap.Cause.Return_trap, 0L))
  in
  set_pc t next_pc

(* Authorise a fetch at [pc] against PCC (Section 4.4: the absolute PC
   is checked against PCC in Execute) and against the TLB page, which
   still translates underneath (Section 4.1).  Never inlined: both checks
   take the PC across module boundaries, so a caller boxes it once. *)
let[@inline never] check_fetch t pc =
  check_cap t ~reg:0xFF t.pcc Cap.Capability.Execute ~addr:pc ~size:4;
  let prot = Mem.Tlb.protection t.hier.Mem.Hierarchy.tlb pc in
  if not (prot.Mem.Tlb.valid && prot.Mem.Tlb.executable) then raise (Exn (Cp0.Tlb_load, pc))

let[@inline] charge_fetch t =
  if t.timing then charge t (Mem.Hierarchy.access_insn t.hier ~pc:(pc t))

(* The I-side of every retirement, whichever tier supplies the decoded
   instruction: the fetch checks, then the I-side hierarchy charge.
   [checked] means the caller has already proven both checks pass for
   this PC (the superblock's per-block hoist). *)
let[@inline] ifetch t ~checked =
  if not checked then check_fetch t (pc t);
  charge_fetch t

(* Decode-cache miss: the checked fetch, then the word read and decode.
   One PC box serves the checks and the read. *)
let fetch t =
  let pc = Sys.opaque_identity (pc t) in
  check_fetch t pc;
  charge_fetch t;
  let word =
    try Mem.Phys.read_u32 t.phys pc
    with Mem.Phys.Bus_error a -> raise (Exn (Cp0.Address_error_load, a))
  in
  try Code.decode word with Code.Decode_error _ -> raise (Exn (Cp0.Reserved_instruction, 0L))

(* Shadow call stack for the profiler's collapsed-stack output: calls
   and returns are reported after execute, when register-indirect
   targets are known.  The minic ABI returns via `jr $ra`. *)
let note_frame t p insn =
  match insn with
  | Insn.Jal _ | Insn.Jalr _ | Insn.CJALR _ -> Obs.Probe.enter_frame p ~callee:(pc t)
  | Insn.Jr s when s = Regs.ra -> Obs.Probe.exit_frame p
  | _ -> ()

(* Retire one fetched instruction: the sequence both engines share.  The
   probe classifies and samples over exactly the instret population
   (markers excluded, instructions that trap in execute counted); a
   call or return that did not trap then updates its shadow call stack. *)
let[@inline] retire t insn =
  t.instret <- t.instret + 1;
  charge t 1;
  match t.probe with
  | None -> execute t insn
  | Some p ->
      Obs.Probe.note p insn ~pc:(pc t);
      execute t insn;
      note_frame t p insn

(* O(fills since the last call): only logged slots and pages are reset
   unless the log overflowed. *)
let invalidate_icache t =
  if t.decode_fills > fill_log_len then begin
    Array.fill t.decode_pc 0 decode_slots (-1);
    Bytes.fill t.code_pages 0 (Bytes.length t.code_pages) '\000'
  end
  else
    for k = 0 to t.decode_fills - 1 do
      let ipc = Array.unsafe_get t.decode_log k in
      Array.unsafe_set t.decode_pc ((ipc lsr 2) land decode_mask) (-1);
      Bytes.unsafe_set t.code_pages (ipc lsr 12) '\000'
    done;
  t.decode_fills <- 0;
  flush_superblocks t

(* Route an in-flight exception to the kernel model: the shared tail of
   [step] and the superblock executor, so both engines dispatch traps
   through byte-identical CP0 state updates. *)
let dispatch_exn t exc badv =
  t.cp0.Cp0.epc <- pc t;
  t.cp0.Cp0.badvaddr <- badv;
  t.cp0.Cp0.last_exc <- Some exc;
  t.cp0.Cp0.exl <- true;
  t.ll_bit <- false;
  t.kernel_entries <- t.kernel_entries + 1;
  let ctx = { exc; victim_pc = t.cp0.Cp0.epc } in
  match t.kernel t ctx with
  | Resume_at pc ->
      t.cp0.Cp0.exl <- false;
      set_pc t pc
  | Halt code -> raise (Halted code)
  | Fatal -> raise (Unhandled ctx)

let step t =
  (match t.on_step with Some f -> f t | None -> ());
  try
    let pc = pc t in
    let ipc = Int64.to_int pc in
    (* The int tag must represent the 64-bit PC faithfully: [Int64.to_int]
       alone wraps modulo 2^63, so e.g. 0x8000_0000_0000_1000 and 0x1000
       would share a tag and the cache could serve one PC's decode for the
       other.  A PC the native int cannot hold bypasses the cache (full
       fetch path, architecturally identical); such PCs trap on fetch in
       every real workload anyway. *)
    let representable = Int64.equal (Int64.of_int ipc) pc in
    let slot = (ipc lsr 2) land decode_mask in
    let insn =
      if representable && Array.unsafe_get t.decode_pc slot = ipc then begin
        (* Decode-cache hit.  Architectural fetch checks and costs still apply. *)
        ifetch t ~checked:false;
        Array.unsafe_get t.decode_insn slot
      end
      else begin
        let insn = fetch t in
        if representable then begin
          Array.unsafe_set t.decode_pc slot ipc;
          Array.unsafe_set t.decode_insn slot insn;
          (* Every decode-cache fill flags its page for [restore]'s SMC
             check; superblock regions are subsets of decode-resident
             PCs, so one site covers both tiers.  [fetch] bounds-checked
             the PC, so the page index is in range. *)
          Bytes.unsafe_set t.code_pages (ipc lsr 12) '\001';
          if t.decode_fills < fill_log_len then Array.unsafe_set t.decode_log t.decode_fills ipc;
          t.decode_fills <- t.decode_fills + 1
        end;
        insn
      end
    in
    match insn with
    | Insn.Trace _ -> execute t insn (* instrumentation: free, excluded from instret *)
    | _ -> retire t insn
  with Exn (exc, badv) -> dispatch_exn t exc badv

(* --- the superblock tier ------------------------------------------------ *)

(* The last instruction a block may hold: anything whose next PC may
   differ from pc+4 — control transfers and always-trapping
   instructions.  It joins the block, so a loop's back-edge branch
   retires inside the loop's block. *)
let ends_block = function
  | Insn.J _ | Insn.Jal _ | Insn.Jr _ | Insn.Jalr _
  | Insn.Beq _ | Insn.Bne _ | Insn.Blez _ | Insn.Bgtz _ | Insn.Bltz _ | Insn.Bgez _
  | Insn.Syscall | Insn.Break | Insn.Eret
  | Insn.CBTU _ | Insn.CBTS _ | Insn.CJR _ | Insn.CJALR _
  | Insn.CCall _ | Insn.CReturn -> true
  | _ -> false

(* Pin [code] at table slot [slot] under head [ipc], logging the slot for
   [flush_superblocks]. *)
let pin t ipc slot code =
  Array.unsafe_set t.sb_pc slot ipc;
  Array.unsafe_set t.sb_code slot code;
  if t.sb_pins < fill_log_len then Array.unsafe_set t.sb_log t.sb_pins slot;
  t.sb_pins <- t.sb_pins + 1

(* Try to form a superblock headed at [ipc] (a faithful int PC) and pin it
   in table slot [slot].  Formation reads *only decode-cache-resident*
   entries — it stops at the first cold slot — so translation can never
   observe instruction bytes the plain engine would not have decoded, and
   a cold head doubles as the hotness gate: code translates on its second
   visit, once the first pass has warmed the decode cache.  A block runs
   through its first [ends_block] instruction; a trace marker ends it
   without joining, since markers have their own retirement convention.
   Returns the pinned code array ([||] when the head is cold or a
   marker). *)
let translate t ipc slot =
  let buf = Array.make max_sb_len Insn.Syscall in
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < max_sb_len do
    let a = ipc + (!n * 4) in
    let dslot = (a lsr 2) land decode_mask in
    if Array.unsafe_get t.decode_pc dslot = a then begin
      match Array.unsafe_get t.decode_insn dslot with
      | Insn.Trace _ -> continue_ := false
      | insn ->
          Array.unsafe_set buf !n insn;
          incr n;
          if ends_block insn then continue_ := false
    end
    else continue_ := false
  done;
  if !n = 0 then begin
    (* Pin an empty block for a *warm* marker head so re-dispatch is a
       single compare; a cold head stays unpinned and will be retried once
       the decode cache has warmed. *)
    let dslot = (ipc lsr 2) land decode_mask in
    if Array.unsafe_get t.decode_pc dslot = ipc then pin t ipc slot [||];
    [||]
  end
  else begin
    let code = Array.sub buf 0 !n in
    pin t ipc slot code;
    t.sb_translations <- t.sb_translations + 1;
    Mem.Snoop.cover t.sb_snoop ~lo:ipc ~hi:(ipc + (!n * 4));
    code
  end

(* Execute up to [n] elements of a pinned block whose head is the current
   PC ([ipc]).  Per element this is exactly [step]'s decode-hit path —
   [ifetch] then [retire] — minus the per-step dispatch, tagging, and
   exception-frame overhead, which is where the speed comes from.
   Every element but the last falls through to pc+4; the last may
   transfer control, and [retire] reports its call or return to the
   probe as [step] would.  A trap dispatches through [dispatch_exn] and
   ends the block.

   Nothing writes PCC or the page table before the last element: a step
   hook sends [sb_step] to [step], a kernel entry ends the block, the
   probe and the store hook must not write architectural state, and
   every PCC-writing instruction ends a block.  Both fetch checks are
   pure, so when the whole range passes PCC's execute check and lies on
   one executable page, the per-element checks are no-ops and are
   hoisted.  Otherwise every element is checked, so the trap lands at
   exactly the PC — with exactly the cause — the plain engine would
   report. *)
let exec_block t ipc code n =
  t.sb_dispatches <- t.sb_dispatches + 1;
  let len = n * 4 in
  let checked =
    ipc lsr Mem.Tlb.page_bits = (ipc + len - 1) lsr Mem.Tlb.page_bits
    &&
    let pc = Sys.opaque_identity (pc t) in
    (match Cap.Capability.check_access t.pcc Cap.Capability.Execute ~addr:pc ~size:(Int64.of_int len) with
    | Ok () -> true
    | Error _ -> false)
    &&
    let prot = Mem.Tlb.protection t.hier.Mem.Hierarchy.tlb pc in
    prot.Mem.Tlb.valid && prot.Mem.Tlb.executable
  in
  let i = ref 0 in
  (try
     while !i < n do
       ifetch t ~checked;
       retire t (Array.unsafe_get code !i);
       incr i
     done
   with Exn (exc, badv) -> dispatch_exn t exc badv);
  t.sb_retired <- t.sb_retired + !i

(* One unit of work under the superblock engine: retire up to [fuel]
   instructions through a block pinned at the current PC, or fall back to
   a single generic [step] (which also warms the decode cache that
   formation feeds on).  [fuel] lets the run loop align block boundaries
   with its budget and watchdog sampling points, keeping both engines'
   outcomes identical instruction for instruction.  A step hook selects
   [step] outright: it may write architectural state (the fault injector
   rewrites registers and PCC) before any retirement. *)
let sb_step t ~fuel =
  let pc = pc t in
  let ipc = Int64.to_int pc in
  if fuel <= 0 || Option.is_some t.on_step || not (Int64.equal (Int64.of_int ipc) pc)
  then step t
  else begin
    let slot = (ipc lsr 2) land sb_mask in
    let code =
      if Array.unsafe_get t.sb_pc slot = ipc then Array.unsafe_get t.sb_code slot
      else translate t ipc slot
    in
    let n = Array.length code in
    if n = 0 then step t else exec_block t ipc code (if fuel < n then fuel else n)
  end

(* --- the hardened run loop --------------------------------------------- *)

(* A digest of the full architectural state: PC, GPRs, capability register
   file, and the monotone side-effect counters (stores, kernel entries).
   Two equal digests taken at the same PC with equal side-effect counters
   mean memory has not changed between the samples and the register state
   repeated — on this deterministic machine that is a provable hang. *)
let state_digest t =
  let mix h v =
    let h = Int64.mul (Int64.logxor h v) 0xFF51_AFD7_ED55_8CCDL in
    Int64.logxor h (Int64.shift_right_logical h 33)
  in
  let h = ref (mix 0x9E37_79B9_7F4A_7C15L (pc t)) in
  for i = 1 to 31 do
    h := mix !h (gpr t i)
  done;
  h := mix !h (hi t);
  h := mix !h (lo t);
  let mix_cap c =
    h := mix !h (Cap.Capability.base c);
    h := mix !h (Cap.Capability.length c);
    h := mix !h (Int64.of_int (Cap.Perms.to_int (Cap.Capability.perms c)));
    h := mix !h (Int64.of_int (Cap.Capability.otype c));
    h := mix !h (if Cap.Capability.tag c then 3L else 5L);
    h := mix !h (if Cap.Capability.is_sealed c then 7L else 11L)
  in
  Array.iter mix_cap t.caps;
  mix_cap t.pcc;
  h := mix !h (Int64.of_int t.stores);
  h := mix !h (Int64.of_int t.kernel_entries);
  h := mix !h (if t.ll_bit then 13L else 17L);
  !h

(* PC-history hang detector: every [watchdog] retired instructions, record
   (PC, state digest) in a small ring; a revisit of a recorded observation
   proves an infinite loop (see [state_digest]).  The sampling makes the
   detector probabilistic for long loop periods — the instruction budget
   remains the backstop — but it catches the tight spin loops injected
   faults actually produce within a couple of sampling windows. *)
let watchdog_ring = 64

(* Run until the kernel halts the machine, [max_insns] is exceeded, or the
   [watchdog] (a sampling interval in instructions; 0 disables) proves a
   hang.  Never raises: stray OCaml exceptions out of a native kernel
   callback degrade to [Trap_unhandled] so that campaign drivers survive
   corrupted syscall arguments. *)
let run_result ?(max_insns = Int64.max_int) ?(watchdog = 0) t =
  let start = t.instret in
  (* The budget arrives as an int64 for API stability; clamp it into the
     native-int domain the retirement counter lives in. *)
  let budget =
    if Int64.compare max_insns (Int64.of_int max_int) >= 0 then max_int
    else Int64.to_int max_insns
  in
  let wd = if watchdog > 0 then watchdog else 0 in
  let hist_pc = Array.make watchdog_ring Int64.minus_one in
  let hist_digest = Array.make watchdog_ring 0L in
  let hist_len = ref 0 and hist_next = ref 0 in
  let outcome = ref None in
  (try
     while !outcome = None do
       if t.instret - start >= budget then
         outcome :=
           Some (Budget_exhausted (snapshot ~cause:"instruction budget exhausted" t))
       else begin
         (match t.engine with
         | Plain -> step t
         | Superblock ->
             (* Clip the block so it can never run past the instruction
                budget or through a watchdog sampling point: with the clip
                in place the loop observes the same (instret, pc, digest)
                sequence at every check under both engines. *)
             let progress = t.instret - start in
             let fuel = budget - progress in
             let fuel = if wd > 0 then min fuel (wd - (progress mod wd)) else fuel in
             sb_step t ~fuel);
         if wd > 0 && (t.instret - start) mod wd = 0 then begin
           let d = state_digest t in
           let repeat = ref false in
           for i = 0 to !hist_len - 1 do
             if Int64.equal hist_pc.(i) (pc t) && Int64.equal hist_digest.(i) d then
               repeat := true
           done;
           if !repeat then
             outcome :=
               Some
                 (Watchdog_hang
                    (snapshot ~cause:"watchdog: architectural state repeated" t))
           else begin
             hist_pc.(!hist_next) <- pc t;
             hist_digest.(!hist_next) <- d;
             hist_next := (!hist_next + 1) mod watchdog_ring;
             if !hist_len < watchdog_ring then incr hist_len
           end
         end
       end
     done
   with
  | Halted code -> outcome := Some (Exited code)
  | Unhandled ctx ->
      outcome := Some (Trap_unhandled (ctx, snapshot ~cause:"unhandled trap" t))
  | e ->
      (* A native kernel callback tripped over corrupted state (e.g. a
         syscall argument pointing outside physical memory).  Report it as
         an unhandled trap rather than unwinding the whole process. *)
      let ctx =
        {
          exc = (match t.cp0.Cp0.last_exc with Some exc -> exc | None -> Cp0.Trap);
          victim_pc = pc t;
        }
      in
      outcome :=
        Some
          (Trap_unhandled
             (ctx, snapshot ~cause:("kernel model error: " ^ Printexc.to_string e) t)));
  match !outcome with Some r -> r | None -> assert false

(* --- the observability counter file ------------------------------------- *)

(* Snapshot the machine's view of the lib/obs counter file: retirement
   and cycle counters from the core, cache/TLB/tag-controller events
   from the memory hierarchy, and instruction-class counters from the
   probe (zero when no probe is attached).  Building a fresh counter
   file per read keeps the hot path free of any per-step obs stores;
   spans diff two reads. *)
let read_counters t =
  let c = Obs.Counters.create () in
  Obs.Counters.set_int c Obs.Counters.instret t.instret;
  Obs.Counters.set_int c Obs.Counters.cycles t.cycles;
  Obs.Counters.set_int c Obs.Counters.retired_stores t.stores;
  Obs.Counters.set_int c Obs.Counters.kernel_entries t.kernel_entries;
  Obs.Counters.set_int c Obs.Counters.sb_translations t.sb_translations;
  Obs.Counters.set_int c Obs.Counters.sb_dispatches t.sb_dispatches;
  Obs.Counters.set_int c Obs.Counters.sb_retired t.sb_retired;
  Mem.Hierarchy.fill_counters t.hier c;
  (match t.probe with Some p -> Obs.Probe.fill p c | None -> ());
  c

(* --- architectural checkpoint / restore --------------------------------- *)

(* A post-boot architectural checkpoint: the warm-server fast-reset
   primitive (docs/PERFORMANCE.md).  [checkpoint] captures every piece of
   architectural state — register files, CP0, physical memory (arming
   dirty-page tracking so [restore] only touches pages written since),
   tag table, TLB, cache-hierarchy model state, and the architectural
   counters.  [restore] puts all of it back bit-exactly while
   deliberately keeping the *host-side* decode cache and superblock
   translations warm: hits charge identical architectural costs, so
   replay from a restored checkpoint is observationally equal to replay
   from the moment the checkpoint was taken.

   Staleness across the rewind is impossible: [code_pages] flags every
   page the decode cache was filled from, and the physical memory's
   dirty map records every page written since the checkpoint.  If the
   two intersect, some warm entry may describe bytes the restore
   rewinds — whichever order the store and the decode happened in — and
   the warm tiers are invalidated.  Host hooks (kernel callback,
   trace/step/store hooks, probe) and the engine selection are
   deliberately not part of the checkpoint; they are configuration, not
   architectural state. *)
type checkpoint = {
  ck_regs : Regs.t;
  ck_caps : Cap.Capability.t array;
  ck_pcc : Cap.Capability.t;
  ck_pc : int64;
  ck_mode : Cp0.mode;
  ck_exl : bool;
  ck_epc : int64;
  ck_badvaddr : int64;
  ck_last_exc : Cp0.exc option;
  ck_count : int64;
  ck_capcause : Cap.Cause.t;
  ck_capcause_reg : int;
  ck_phys : Mem.Phys.snapshot;
  ck_tags : Mem.Tags.snapshot;
  ck_hier : Mem.Hierarchy.snapshot;
  ck_cycles : int;
  ck_instret : int;
  ck_ll_bit : bool;
  ck_ll_addr : int64;
  ck_stores : int;
  ck_kernel_entries : int;
}

let checkpoint t =
  {
    ck_regs = Regs.copy t.regs;
    ck_caps = Array.copy t.caps;
    ck_pcc = t.pcc;
    ck_pc = pc t;
    ck_mode = t.cp0.Cp0.mode;
    ck_exl = t.cp0.Cp0.exl;
    ck_epc = t.cp0.Cp0.epc;
    ck_badvaddr = t.cp0.Cp0.badvaddr;
    ck_last_exc = t.cp0.Cp0.last_exc;
    ck_count = t.cp0.Cp0.count;
    ck_capcause = t.cp0.Cp0.capcause;
    ck_capcause_reg = t.cp0.Cp0.capcause_reg;
    ck_phys = Mem.Phys.snapshot t.phys;
    ck_tags = Mem.Tags.snapshot t.tags;
    ck_hier = Mem.Hierarchy.snapshot t.hier;
    ck_cycles = t.cycles;
    ck_instret = t.instret;
    ck_ll_bit = t.ll_bit;
    ck_ll_addr = t.ll_addr;
    ck_stores = t.stores;
    ck_kernel_entries = t.kernel_entries;
  }

(* Restore the machine to [c]; returns the number of physical pages
   rewound.  O(dirty pages), not O(memory). *)
let restore t (c : checkpoint) =
  (* Decide SMC coherence before the dirty map is cleared. *)
  let dirty = Mem.Phys.dirty_pages t.phys in
  let smc =
    List.exists
      (fun p -> p < Bytes.length t.code_pages && Bytes.unsafe_get t.code_pages p <> '\000')
      dirty
  in
  List.iter
    (fun p -> Mem.Tags.restore_page t.tags c.ck_tags ~page_bytes:Mem.Phys.page_bytes p)
    dirty;
  let pages = Mem.Phys.restore t.phys c.ck_phys in
  Mem.Hierarchy.restore t.hier c.ck_hier;
  Regs.load t.regs c.ck_regs;
  Array.blit c.ck_caps 0 t.caps 0 32;
  t.pcc <- c.ck_pcc;
  set_pc t c.ck_pc;
  t.cp0.Cp0.mode <- c.ck_mode;
  t.cp0.Cp0.exl <- c.ck_exl;
  t.cp0.Cp0.epc <- c.ck_epc;
  t.cp0.Cp0.badvaddr <- c.ck_badvaddr;
  t.cp0.Cp0.last_exc <- c.ck_last_exc;
  t.cp0.Cp0.count <- c.ck_count;
  t.cp0.Cp0.capcause <- c.ck_capcause;
  t.cp0.Cp0.capcause_reg <- c.ck_capcause_reg;
  t.cycles <- c.ck_cycles;
  t.instret <- c.ck_instret;
  t.ll_bit <- c.ck_ll_bit;
  t.ll_addr <- c.ck_ll_addr;
  t.stores <- c.ck_stores;
  t.kernel_entries <- c.ck_kernel_entries;
  if smc then invalidate_icache t;
  pages
