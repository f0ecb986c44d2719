(* A miniature supervisor modelling the paper's FreeBSD extensions
   (Section 4.3):

     - on process start the *entire user virtual address space* is delegated
       to the user capability register file (C0/PCC spanning it);
     - the kernel handles syscalls (exit, putchar, write, sbrk, counters);
     - the kernel saves and restores per-thread capability register state on
       context switches ([Context]);
     - CCall/CReturn trap to the kernel, which implements the protected
       procedure call over a trusted stack (Section 11: "Our current
       prototype traps to the OS to emulate a protected procedure-call
       instruction").

   The kernel is a native model: it manipulates machine state directly from
   OCaml rather than running privileged simulated code (DESIGN.md). *)

open Beri

(* Syscall numbers (v0). *)
let sys_exit = 1
let sys_putchar = 2
let sys_sbrk = 3
let sys_write = 4
let sys_cycles = 5
let sys_instret = 6
let sys_print_int = 7

type fault = {
  exc : Cp0.exc;
  pc : int64;
  badvaddr : int64;
  capcause : Cap.Cause.t;
  capreg : int;
  instret : int64; (* retired instructions at the trap *)
  cycles : int64; (* model cycles at the trap *)
  disasm : string; (* disassembly of the faulting instruction *)
}

type t = {
  machine : Machine.t;
  mutable brk : int64;
  heap_limit : int64;
  stack_top : int64;
  user_top : int64;
  output : Buffer.t;
  mutable syscall_count : int;
  mutable fault_handler : (t -> fault -> Machine.kernel_action) option;
  mutable trusted_stack : frame list;
  mutable ccalls : int;
  mutable creturns : int;
  mutable ctx_saves : int; (* trusted-stack frames pushed (CCall entry) *)
  mutable ctx_restores : int; (* frames popped (CReturn or unwind) *)
  mutable obs_span : Obs.Span.t option;
      (* when set, CCall/CReturn domain transitions open/close a
         "ccall" span — sandbox time shows up as a phase. *)
  mutable obs_bus : Obs.Event.bus option;
      (* when set, kernel-visible faults are emitted as structured
         events on the shared bus. *)
  mutable obs_trace : Obs.Trace.t option;
      (* when set, CCall/CReturn/unwind transitions and faults are
         recorded as cycle-timestamped trace events — the kernel track
         and per-compartment spans of the exported timeline. *)
}

and frame = {
  saved_pcc : Cap.Capability.t;
  saved_c0 : Cap.Capability.t;
  return_pc : int64;
  frame_otype : int; (* the sealed pair's object type: names the compartment *)
}

(* The CHERI ABI defines eight capability argument registers (Section 5.1):
   C3..C10 carry capability arguments; C1/C2 are caller-save temporaries,
   C26 is the invoked data capability. *)
let idc_reg = 26

let machine t = t.machine
let console t = Buffer.contents t.output

let sbrk t delta =
  let old = t.brk in
  let nbrk = Int64.add t.brk delta in
  if Int64.unsigned_compare nbrk t.heap_limit > 0 || Int64.compare nbrk Layout.heap_base < 0
  then Int64.minus_one (* ENOMEM *)
  else begin
    if Int64.compare nbrk old > 0 then
      Machine.map_identity t.machine ~vaddr:old
        ~len:(Int64.to_int (Int64.sub nbrk old))
        Mem.Tlb.prot_rwx;
    t.brk <- nbrk;
    old
  end

let handle_syscall t =
  let m = t.machine in
  t.syscall_count <- t.syscall_count + 1;
  let num = Int64.to_int (Machine.gpr m Regs.v0) in
  let a0 = Machine.gpr m Regs.a0 in
  if num = sys_exit then Machine.Halt (Int64.to_int a0)
  else begin
    (match num with
    | n when n = sys_putchar ->
        Buffer.add_char t.output (Char.chr (Int64.to_int a0 land 0xFF));
        Machine.set_gpr m Regs.v0 0L
    | n when n = sys_write ->
        let len = Int64.to_int (Machine.gpr m Regs.a1) in
        let bytes = Mem.Phys.read_bytes m.Machine.phys a0 len in
        Buffer.add_bytes t.output bytes;
        Machine.set_gpr m Regs.v0 (Int64.of_int len)
    | n when n = sys_sbrk -> Machine.set_gpr m Regs.v0 (sbrk t a0)
    | n when n = sys_print_int ->
        Buffer.add_string t.output (Int64.to_string a0);
        Buffer.add_char t.output '\n';
        Machine.set_gpr m Regs.v0 0L
    | n when n = sys_cycles -> Machine.set_gpr m Regs.v0 (Int64.of_int m.Machine.cycles)
    | n when n = sys_instret -> Machine.set_gpr m Regs.v0 (Int64.of_int m.Machine.instret)
    | _ -> Machine.set_gpr m Regs.v0 Int64.minus_one);
    Machine.Resume_at (Int64.add m.Machine.cp0.Cp0.epc 4L)
  end

(* Protected procedure call (trap-emulated CCall): unseal the code/data pair,
   push a trusted-stack frame, and enter the callee's domain. *)
let handle_ccall t =
  let m = t.machine in
  t.ccalls <- t.ccalls + 1;
  (* By convention CCall's operands are in C1 (sealed code) and C2 (sealed
     data); the decoded operand registers were validated by the trap. *)
  let code = Machine.cap m 1 and data = Machine.cap m 2 in
  let fail cause =
    m.Machine.cp0.Cp0.capcause <- cause;
    Machine.Halt 96
  in
  if not (Cap.Capability.tag code && Cap.Capability.tag data) then fail Cap.Cause.Tag_violation
  else if not (Cap.Capability.is_sealed code && Cap.Capability.is_sealed data) then
    fail Cap.Cause.Seal_violation
  else if Cap.Capability.otype code <> Cap.Capability.otype data then
    fail Cap.Cause.Type_violation
  else begin
    let authority =
      Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:Cap.U64.max_value
    in
    let ot = Cap.Capability.otype code in
    match
      ( Cap.Capability.unseal code ~authority ~otype:ot,
        Cap.Capability.unseal data ~authority ~otype:ot )
    with
    | Ok ucode, Ok udata ->
        (match t.obs_span with Some s -> Obs.Span.enter s "ccall" | None -> ());
        (match t.obs_trace with
        | Some tr -> Obs.Trace.ccall tr ~ts:m.Machine.cycles ~otype:ot
        | None -> ());
        t.ctx_saves <- t.ctx_saves + 1;
        t.trusted_stack <-
          {
            saved_pcc = m.Machine.pcc;
            saved_c0 = Machine.cap m 0;
            return_pc = Int64.add m.Machine.cp0.Cp0.epc 4L;
            frame_otype = ot;
          }
          :: t.trusted_stack;
        m.Machine.pcc <- ucode;
        Machine.set_cap m 0 udata;
        Machine.set_cap m idc_reg udata;
        Machine.Resume_at (Cap.Capability.base ucode)
    | Error c, _ | _, Error c -> fail c
  end

let handle_creturn t =
  let m = t.machine in
  t.creturns <- t.creturns + 1;
  match t.trusted_stack with
  | [] ->
      (* CReturn with no matching CCall is an architectural error, not a
         generic failure: report it with the precise capability cause. *)
      m.Machine.cp0.Cp0.capcause <- Cap.Cause.Return_trap;
      Machine.Halt 97
  | frame :: rest ->
      t.trusted_stack <- rest;
      t.ctx_restores <- t.ctx_restores + 1;
      (match t.obs_span with Some s -> Obs.Span.exit s | None -> ());
      (match t.obs_trace with
      | Some tr ->
          Obs.Trace.creturn tr ~ts:m.Machine.cycles ~otype:frame.frame_otype ~unwound:false
      | None -> ());
      m.Machine.pcc <- frame.saved_pcc;
      Machine.set_cap m 0 frame.saved_c0;
      Machine.Resume_at frame.return_pc

(* Pop every trusted-stack frame, restoring the outermost caller's
   PCC/C0.  Used by server loops to recover the router's domain after a
   fault inside a worker compartment aborted the protected call chain. *)
let unwind_trusted_stack t =
  let m = t.machine in
  (* Each popped frame is a truncated protected call: record it as an
     unwound return so the trace's worker span still closes — at the
     trap cycle, flagged unwound — instead of dangling open. *)
  let note frame =
    t.ctx_restores <- t.ctx_restores + 1;
    (match t.obs_span with Some s -> Obs.Span.exit s | None -> ());
    match t.obs_trace with
    | Some tr -> Obs.Trace.creturn tr ~ts:m.Machine.cycles ~otype:frame.frame_otype ~unwound:true
    | None -> ()
  in
  let rec pop = function
    | [] -> ()
    | [ frame ] ->
        note frame;
        m.Machine.pcc <- frame.saved_pcc;
        Machine.set_cap m 0 frame.saved_c0
    | frame :: rest ->
        note frame;
        pop rest
  in
  pop t.trusted_stack;
  t.trusted_stack <- []

let trusted_stack_depth t = List.length t.trusted_stack

(* The faulting instruction's disassembly, recovered from the memory image
   at the victim PC (best-effort: the PC itself may be corrupt). *)
let disasm_at (m : Machine.t) pc =
  match Mem.Phys.read_u32 m.Machine.phys pc with
  | w -> Asm.Disasm.word w
  | exception _ -> "<unreadable>"

let default_fault t fault =
  ignore t;
  Fmt.epr "[kernel] fatal fault at pc=0x%Lx: %s [%s] (badvaddr=0x%Lx, instret=%Ld, cycles=%Ld)@."
    fault.pc (Cp0.exc_to_string fault.exc) fault.disasm fault.badvaddr fault.instret
    fault.cycles;
  Machine.Halt 139

let handler t (ctx : Machine.exn_ctx) =
  match ctx.Machine.exc with
  | Cp0.Syscall -> handle_syscall t
  | Cp0.Cp2 Cap.Cause.Call_trap -> handle_ccall t
  | Cp0.Cp2 Cap.Cause.Return_trap -> handle_creturn t
  | exc -> (
      let fault =
        {
          exc;
          pc = ctx.Machine.victim_pc;
          badvaddr = t.machine.Machine.cp0.Cp0.badvaddr;
          capcause = t.machine.Machine.cp0.Cp0.capcause;
          capreg = t.machine.Machine.cp0.Cp0.capcause_reg;
          instret = Int64.of_int t.machine.Machine.instret;
          cycles = Int64.of_int t.machine.Machine.cycles;
          disasm = disasm_at t.machine ctx.Machine.victim_pc;
        }
      in
      (match t.obs_trace with
      | Some tr ->
          Obs.Trace.trap tr
            ~ts:(Int64.to_int fault.cycles)
            ~exc:(Cp0.exc_to_string exc)
            ~cause:(Cap.Cause.to_string fault.capcause)
            ~pc:fault.pc
      | None -> ());
      (match t.obs_bus with
      | Some bus ->
          Obs.Event.emit bus ~kind:"fault" ~name:(Cp0.exc_to_string exc)
            [
              ("pc", Obs.Json.Int fault.pc);
              ("badvaddr", Obs.Json.Int fault.badvaddr);
              ("capcause", Obs.Json.String (Cap.Cause.to_string fault.capcause));
              ("capreg", Obs.Json.Int (Int64.of_int fault.capreg));
              ("instret", Obs.Json.Int fault.instret);
              ("cycles", Obs.Json.Int fault.cycles);
              ("disasm", Obs.Json.String fault.disasm);
            ]
      | None -> ());
      match t.fault_handler with
      | Some f -> f t fault
      | None -> default_fault t fault)

let attach machine =
  (* The memory layout scales with the machine: the stack sits in the top
     megabyte, the heap grows from Layout.heap_base up to a 16 MB margin
     below the stack, and the whole space is delegated on exec. *)
  let mem = Int64.of_int (Mem.Phys.size machine.Machine.phys) in
  let stack_top = mem in
  let heap_limit = Int64.sub mem 0x110_0000L in
  let t =
    {
      machine;
      brk = Layout.heap_base;
      heap_limit;
      stack_top;
      user_top = mem;
      output = Buffer.create 256;
      syscall_count = 0;
      fault_handler = None;
      trusted_stack = [];
      ccalls = 0;
      creturns = 0;
      ctx_saves = 0;
      ctx_restores = 0;
      obs_span = None;
      obs_bus = None;
      obs_trace = None;
    }
  in
  Machine.set_kernel machine (fun _m ctx -> handler t ctx);
  t

let set_fault_handler t f = t.fault_handler <- Some f

(* Attach observability plumbing: an optional span scope for domain
   transitions, an optional event bus for faults, and an optional trace
   collector for the cycle-timestamped timeline. *)
let set_obs ?span ?bus ?trace t =
  t.obs_span <- span;
  t.obs_bus <- bus;
  t.obs_trace <- trace

(* The kernel's view of the counter file: everything the machine and the
   memory hierarchy report, plus the OS-level event counts only the
   kernel model knows (syscalls, protected procedure calls). *)
let read_counters t =
  let c = Machine.read_counters t.machine in
  Obs.Counters.set_int c Obs.Counters.syscalls t.syscall_count;
  Obs.Counters.set_int c Obs.Counters.ccalls t.ccalls;
  Obs.Counters.set_int c Obs.Counters.creturns t.creturns;
  Obs.Counters.set_int c Obs.Counters.ctx_saves t.ctx_saves;
  Obs.Counters.set_int c Obs.Counters.ctx_restores t.ctx_restores;
  c

(* Boot a user program (Section 4.3): load the image, delegate the whole
   user address space to the capability register file, point SP at the top
   of the stack, and drop to user mode at the entry point. *)
let exec t (program : Asm.Assembler.program) =
  let m = t.machine in
  Asm.Assembler.load m program;
  let stack_base = Int64.sub t.stack_top 0x10_0000L in
  Machine.map_identity m ~vaddr:stack_base
    ~len:(Int64.to_int (Int64.sub t.stack_top stack_base))
    Mem.Tlb.prot_rwx;
  (* Delegate the entire user virtual address space. *)
  let user_space =
    Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:t.user_top
  in
  for i = 0 to 31 do
    Machine.set_cap m i user_space
  done;
  m.Machine.pcc <- user_space;
  Machine.set_gpr m Regs.sp (Int64.sub t.stack_top 32L);
  m.Machine.cp0.Cp0.mode <- Cp0.User;
  Machine.set_pc m program.Asm.Assembler.entry;
  t.brk <- Layout.heap_base

(* Boot a pre-assembled program, run it, and report the
   [Machine.run_result] plus console output. *)
let run_result ?(max_insns = 200_000_000L) ?watchdog t program =
  exec t program;
  let result = Machine.run_result ~max_insns ?watchdog t.machine in
  (result, console t)

(* Convenience: [run_result] from assembly source. *)
let run_program ?max_insns t source = run_result ?max_insns t (Asm.Assembler.assemble source)

(* --- kernel checkpoint / restore ---------------------------------------- *)

(* The native kernel model's half of the warm-server checkpoint: the
   machine's [Machine.checkpoint] captures architectural state, this
   captures the kernel bookkeeping that lives beside it — heap break,
   trusted stack (an immutable frame list, shared structurally), the
   syscall/crossing counters, and the console length (restore truncates
   rather than copies: replay after restore appends the same bytes). *)
type checkpoint = {
  ck_brk : int64;
  ck_syscall_count : int;
  ck_trusted_stack : frame list;
  ck_ccalls : int;
  ck_creturns : int;
  ck_ctx_saves : int;
  ck_ctx_restores : int;
  ck_output_len : int;
}

let checkpoint t =
  {
    ck_brk = t.brk;
    ck_syscall_count = t.syscall_count;
    ck_trusted_stack = t.trusted_stack;
    ck_ccalls = t.ccalls;
    ck_creturns = t.creturns;
    ck_ctx_saves = t.ctx_saves;
    ck_ctx_restores = t.ctx_restores;
    ck_output_len = Buffer.length t.output;
  }

let restore t (c : checkpoint) =
  t.brk <- c.ck_brk;
  t.syscall_count <- c.ck_syscall_count;
  t.trusted_stack <- c.ck_trusted_stack;
  t.ccalls <- c.ck_ccalls;
  t.creturns <- c.ck_creturns;
  t.ctx_saves <- c.ck_ctx_saves;
  t.ctx_restores <- c.ck_ctx_restores;
  Buffer.truncate t.output c.ck_output_len
