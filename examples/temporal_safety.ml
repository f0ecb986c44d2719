(* Temporal safety by tag sweep (Section 11).

     dune exec examples/temporal_safety.exe

   "The presence of tagged memory also provides opportunities to enforce
   temporal safety.  Tags allow us to identify all references..."

   A program frees an object; the (non-reuse) allocator asks the kernel
   to revoke the region.  The sweep clears the tag of every capability
   into it — in memory and in registers — so the program's stale alias
   faults deterministically on next use instead of silently reading
   whatever the allocator later placed there. *)

open Beri

let program =
  {|
main:
  la $t0, object
  cincbase $c1, $c0, $t0
  li $t1, 32
  csetlen $c1, $c1, $t1      # c1 = the allocation
  la $t3, alias_slot         # a data structure keeps an alias in memory
  csc $c1, $t3, 0($c0)

  li $t2, 1234
  csd $t2, $zero, 0($c1)     # normal use

  trace.free $t0             # "free(object)": kernel revokes the region

  la $t3, alias_slot
  clc $c2, $t3, 0($c0)       # reload the stale alias: tag already stripped
  cld $v1, $zero, 0($c2)     # use-after-free: tag violation
  move $a0, $v1
  li $v0, 7
  syscall
  li $v0, 1
  li $a0, 0
  syscall

  .data
  .align 5
object: .space 32
alias_slot: .space 32
|}

let () =
  let machine = Machine.create () in
  let kernel = Os.Kernel.attach machine in
  let trap = ref None in
  Os.Kernel.set_fault_handler kernel (fun _k fault ->
      trap := Some fault.Os.Kernel.capcause;
      Machine.Halt 61);
  let parsed = Asm.Assembler.assemble program in
  let stats = ref None in
  Machine.set_trace_hook machine (fun m marker a _ ->
      if marker = Insn.M_free then begin
        Fmt.pr "free(0x%Lx): kernel revokes the 32-byte region...@." a;
        stats := Some (Os.Revoke.revoke m ~base:a ~length:32L)
      end);
  Os.Kernel.exec kernel parsed;
  let exit_code = Machine.exit_code (Machine.run_result ~max_insns:10_000L machine) in
  (match !stats with
  | Some s ->
      Fmt.pr
        "  swept %d tagged lines; revoked %d in-memory alias(es) and %d register         @.  capabilities (including the process's ambient whole-address-space         @.  registers -- the sweep is precise about everything that could still         @.  reach the region)@."
        s.Os.Revoke.memory_capabilities_scanned s.Os.Revoke.memory_capabilities_revoked
        s.Os.Revoke.register_capabilities_revoked;
      assert (s.Os.Revoke.memory_capabilities_revoked = 1)
  | None -> ());
  Fmt.pr "stale-alias dereference: %s (exit %d)@."
    (match !trap with Some c -> Cap.Cause.to_string c | None -> "(no trap!)")
    exit_code;
  assert (exit_code = 61 && !trap = Some Cap.Cause.Tag_violation);
  Fmt.pr "@.Use-after-free became a deterministic fault, not silent reuse.@."
