(* Sandboxing unmodified legacy code (Section 5.3).

     dune exec examples/sandbox.exe

   A capability-unaware MIPS blob is loaded into a micro-address space and
   entered with C0/PCC restricted to that region.  Its ordinary loads and
   stores are transparently relocated and bounded; the escape attempt
   below (reading the host's "secret" outside the sandbox) raises a CP2
   exception without the blob being recompiled — the incremental-adoption
   story of Section 4.3. *)

(* The legacy blob: plain MIPS, no capability instructions.  It believes it
   owns a flat address space starting at 0. *)
let legacy_blob =
  {|
  .text 0x80000
entry:
  # normal work, sandbox-relative addresses
  li $t0, 0x100
  li $t1, 1234
  sw $t1, 0($t0)          # scratch store inside the sandbox
  lw $t2, 0($t0)

  # escape attempt: read absolute 0x40000 (the host secret)
  lui $t3, 4
  lw $t4, 0($t3)
  break
|}

let secret = 0xC0FFEEL

let () =
  let machine = Machine.create () in
  let kernel = Os.Kernel.attach machine in
  Machine.map_identity machine ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  (* Host state: a secret value outside the sandbox. *)
  Mem.Phys.write_u64 machine.Machine.phys 0x40000L secret;
  let program = Asm.Assembler.assemble legacy_blob in
  Asm.Assembler.load machine program;
  Fmt.pr "entering sandbox [0x80000, 0x82000) at its entry point...@.";
  let sandbox = Os.Sandbox.enter machine ~base:0x80000L ~length:0x2000L ~entry:0x80000L in
  Os.Kernel.set_fault_handler kernel (fun _k fault ->
      Fmt.pr "%s@." (Os.Sandbox.fault_report sandbox fault);
      Machine.Halt 55);
  let exit_code = Machine.exit_code (Machine.run_result ~max_insns:10_000L machine) in
  Os.Sandbox.leave machine sandbox;
  (* The in-sandbox store was relocated: sandbox-relative 0x100 landed at
     physical 0x80100, not 0x100. *)
  let relocated = Mem.Phys.read_u32 machine.Machine.phys 0x80100L in
  let host_0x100 = Mem.Phys.read_u32 machine.Machine.phys 0x100L in
  Fmt.pr "exit code: %d (55 = confined by the CP2 exception)@." exit_code;
  Fmt.pr "sandbox store landed at 0x80100 = %d (host 0x100 untouched: %d)@." relocated
    host_0x100;
  Fmt.pr "escape register $t4 = 0x%Lx (the secret 0x%Lx was never read)@."
    (Machine.gpr machine 11) secret;
  assert (exit_code = 55);
  assert (relocated = 1234 && host_0x100 = 0)
