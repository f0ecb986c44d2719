(* Sandboxing of unmodified (capability-unaware) code (Section 5.3):
   "Conventional binaries are sandboxed in micro-address spaces within
   existing processes by constraining C0 and PCC."

   [enter] installs a restricted C0/PCC pair covering only the sandbox
   region and jumps to the sandbox entry point; legacy loads, stores, and
   fetches inside the sandbox are then implicitly bounded.  Any attempt to
   reach outside raises a CP2 exception, which the kernel fault handler
   observes.  The sandboxed code needs no recompilation — its ordinary
   MIPS loads and stores are offset and bounded via C0 transparently. *)

open Beri

type t = {
  base : int64;
  length : int64;
  entry : int64; (* absolute address of the sandbox entry point *)
  saved : Context.t; (* host context to restore on exit *)
}

(* Enter a sandbox: [base]/[length] delimit the micro-address space;
   [entry] is the absolute entry address within it.  Returns the sandbox
   handle for [leave]. *)
let enter (m : Machine.t) ~base ~length ~entry =
  if Int64.unsigned_compare entry base < 0
     || Int64.unsigned_compare entry (Int64.add base length) >= 0 then
    invalid_arg "Sandbox.enter: entry outside sandbox";
  let saved = Context.save m in
  let data_perms =
    Cap.Perms.union Cap.Perms.load (Cap.Perms.union Cap.Perms.store Cap.Perms.global)
  in
  let region perms = Cap.Capability.make ~perms ~base ~length in
  (* The sandbox receives a no-capability view: it can neither load nor
     store capabilities, so it cannot exfiltrate authority. *)
  Machine.set_cap m 0 (region data_perms);
  for i = 1 to 31 do
    Machine.set_cap m i Cap.Capability.null
  done;
  m.Machine.pcc <- region (Cap.Perms.union Cap.Perms.execute Cap.Perms.global);
  Machine.set_pc m entry;
  (* Legacy code addresses memory C0-relative, so rebase SP to the top of
     the sandbox region. *)
  Machine.set_gpr m Regs.sp (Int64.sub length 32L);
  { base; length; entry; saved }

let leave (m : Machine.t) t = Context.restore m t.saved

(* Mint a sealed code/data capability pair for a compartment (Sections 5.2
   and 11): the trusted loader derives a code capability over the
   compartment's text and a data capability over its private region, then
   seals both with the compartment's object type so only a CCall through
   the kernel can unseal them.  The data capability carries capability
   load/store rights — capability-aware compartments spill capabilities
   C0-relative — but, unlike [enter]'s legacy sandboxes, never execute. *)
let seal_pair ~otype ~code_base ~code_length ~data_base ~data_length =
  let authority =
    Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:Cap.U64.max_value
  in
  let union = List.fold_left Cap.Perms.union Cap.Perms.global in
  let code =
    Cap.Capability.make
      ~perms:(union [ Cap.Perms.execute; Cap.Perms.load ])
      ~base:code_base ~length:code_length
  and data =
    Cap.Capability.make
      ~perms:
        (union
           [ Cap.Perms.load; Cap.Perms.store; Cap.Perms.load_cap; Cap.Perms.store_cap ])
      ~base:data_base ~length:data_length
  in
  match
    ( Cap.Capability.seal code ~authority ~otype,
      Cap.Capability.seal data ~authority ~otype )
  with
  | Ok c, Ok d -> (c, d)
  | Error e, _ | _, Error e ->
      invalid_arg ("Sandbox.seal_pair: " ^ Cap.Cause.to_string e)

(* Trap reporting: render a kernel fault raised inside the sandbox, with
   the sandbox-relative PC, the faulting instruction's disassembly, and
   the retirement counters that make the trap reproducible. *)
let fault_report t (f : Kernel.fault) =
  let rel = Int64.sub f.Kernel.pc t.base in
  Fmt.str
    "sandbox [0x%Lx,+0x%Lx) trap: %s at pc=0x%Lx (sandbox+0x%Lx) [%s] badvaddr=0x%Lx capcause=%s/C%d instret=%Ld cycles=%Ld"
    t.base t.length
    (Cp0.exc_to_string f.Kernel.exc)
    f.Kernel.pc rel f.Kernel.disasm f.Kernel.badvaddr
    (Cap.Cause.to_string f.Kernel.capcause)
    f.Kernel.capreg f.Kernel.instret f.Kernel.cycles
