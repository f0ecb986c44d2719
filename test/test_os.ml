(* Tests for the kernel model: syscall edge cases, heap limits, protected
   call failure paths, and the Section 11 revocation sweep. *)

open Beri

let fresh ?config () =
  let m = Machine.create ?config () in
  let k = Os.Kernel.attach m in
  (m, k)

let run ?(fault = None) source =
  let m, k = fresh () in
  (match fault with Some f -> Os.Kernel.set_fault_handler k f | None -> ());
  let r, out = Os.Kernel.run_program ~max_insns:10_000_000L k source in
  (Outcome.exited r, out, m, k)

(* --- syscalls ------------------------------------------------------------- *)

let test_write_syscall () =
  let code, out, _, _ =
    run
      {|
main:
  la $a0, msg
  li $a1, 5
  li $v0, 4
  syscall
  li $v0, 1
  li $a0, 0
  syscall
  .data
msg: .asciiz "hello"
|}
  in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check string) "console" "hello" out

let test_unknown_syscall () =
  let code, _, _, _ =
    run
      {|
main:
  li $v0, 999
  syscall       # unknown: returns -1, does not kill the process
  li $t0, -1
  bne $v0, $t0, bad
  li $a0, 0
  li $v0, 1
  syscall
bad:
  li $a0, 1
  li $v0, 1
  syscall
|}
  in
  Alcotest.(check int) "survives unknown syscall" 0 code

let test_sbrk_limit () =
  (* Asking for more heap than the kernel's heap limit (which
     [Kernel.attach] derives from the machine size) fails with -1 rather
     than mapping anything. *)
  let code, _, _, _ =
    run
      {|
main:
  li $a0, 0x7FFFFFFF
  li $v0, 3
  syscall
  li $t0, -1
  bne $v0, $t0, bad
  li $a0, 0
  li $v0, 1
  syscall
bad:
  li $a0, 1
  li $v0, 1
  syscall
|}
  in
  Alcotest.(check int) "sbrk beyond limit fails" 0 code

let test_cycles_counter () =
  let code, out, _, _ =
    run
      {|
main:
  li $v0, 5
  syscall
  move $t0, $v0
  li $t1, 50
loop:
  daddiu $t1, $t1, -1
  bgtz $t1, loop
  li $v0, 5
  syscall
  dsubu $a0, $v0, $t0
  li $v0, 7
  syscall
  li $v0, 1
  li $a0, 0
  syscall
|}
  in
  Alcotest.(check int) "exit" 0 code;
  let elapsed = int_of_string (String.trim out) in
  Alcotest.(check bool) "cycle counter advances" true (elapsed >= 100)

(* --- protected call failure paths -------------------------------------------- *)

(* Every refusal must also report the precise architectural cause in the
   capability-cause register, not just a generic failure code. *)
let check_cause what expected (m : Machine.t) =
  Alcotest.(check string) what
    (Cap.Cause.to_string expected)
    (Cap.Cause.to_string m.Machine.cp0.Cp0.capcause)

let test_ccall_untagged_rejected () =
  (* CCall with an untagged operand: Tag_violation before anything else. *)
  let code, _, m, _ =
    run
      {|
main:
  cmove $c1, $c0
  ccleartag $c1
  cmove $c2, $c0
  ccall $c1, $c2
  li $v0, 1
  li $a0, 0
  syscall
|}
  in
  Alcotest.(check int) "refused" 96 code;
  check_cause "tag violation" Cap.Cause.Tag_violation m

let test_ccall_unsealed_rejected () =
  (* CCall with unsealed operands must be refused by the kernel handler. *)
  let code, _, m, _ =
    run
      {|
main:
  cmove $c1, $c0
  cmove $c2, $c0
  ccall $c1, $c2
  li $v0, 1
  li $a0, 0
  syscall
|}
  in
  Alcotest.(check int) "refused" 96 code;
  check_cause "seal violation" Cap.Cause.Seal_violation m

let test_ccall_otype_mismatch_rejected () =
  let code, _, m, _ =
    run
      {|
main:
  li $t0, 5
  cincbase $c4, $c0, $t0
  li $t1, 2
  csetlen $c4, $c4, $t1      # authority for otypes 5..6
  la $t2, main
  cincbase $c5, $c0, $t2
  cseal $c1, $c5, $c4        # otype 5
  li $t0, 6
  cincbase $c6, $c0, $t0
  li $t1, 1
  csetlen $c6, $c6, $t1      # authority for otype 6
  cincbase $c7, $c0, $zero
  cseal $c2, $c7, $c6        # otype 6: mismatch
  ccall $c1, $c2
  li $v0, 1
  li $a0, 0
  syscall
|}
  in
  Alcotest.(check int) "type mismatch refused" 96 code;
  check_cause "type violation" Cap.Cause.Type_violation m

let test_creturn_without_call () =
  let code, _, m, _ = run "main:\n  creturn\n" in
  Alcotest.(check int) "empty trusted stack" 97 code;
  check_cause "return trap" Cap.Cause.Return_trap m

let test_nested_ccall () =
  (* Two levels of protected calls push and pop the trusted stack in
     order. *)
  let code, _, _, k =
    run
      {|
main:
  li $t0, 9
  cincbase $c4, $c0, $t0
  li $t1, 1
  csetlen $c4, $c4, $t1
  la $t2, inner
  cincbase $c5, $c0, $t2
  cseal $c1, $c5, $c4
  la $t3, buf
  cincbase $c6, $c0, $t3
  cseal $c2, $c6, $c4
  # prepare the level-2 pair for the compartment
  la $t2, leaf
  cincbase $c5, $c0, $t2
  cseal $c8, $c5, $c4
  cmove $c9, $c2
  ccall $c1, $c2           # level 1
  move $a0, $v1
  li $v0, 1
  syscall

inner:
  # Inside the compartment C0 is the (small) invoked data capability, so
  # the level-2 sealed pair cannot be rebuilt here — main stashed it in
  # c8/c9, and ordinary registers survive domain crossing.
  cmove $c1, $c8
  cmove $c2, $c9
  ccall $c1, $c2           # level 2
  daddiu $v1, $v1, 1
  creturn

leaf:
  li $v1, 41
  creturn

  .data
  .align 5
buf: .space 32
|}
  in
  Alcotest.(check int) "nested result" 42 code;
  Alcotest.(check int) "two protected calls" 2 k.Os.Kernel.ccalls;
  Alcotest.(check int) "two context saves" 2 k.Os.Kernel.ctx_saves;
  Alcotest.(check int) "two context restores" 2 k.Os.Kernel.ctx_restores;
  Alcotest.(check int) "trusted stack drained" 0 (List.length k.Os.Kernel.trusted_stack)

let test_unwind_trusted_stack () =
  (* A fault inside a nested compartment leaves frames on the trusted
     stack; unwinding pops them all, counts the restores, and recovers
     the *outermost* caller's PCC and C0. *)
  let m, k = fresh () in
  let outer_pcc = Cap.Capability.make ~perms:Cap.Perms.all ~base:0x1000L ~length:0x1000L in
  let outer_c0 = Cap.Capability.make ~perms:Cap.Perms.all ~base:0x8000L ~length:0x1000L in
  m.Machine.pcc <- outer_pcc;
  Machine.set_cap m 0 outer_c0;
  let code, data =
    Os.Sandbox.seal_pair ~otype:7 ~code_base:0x2000L ~code_length:0x100L ~data_base:0x9000L
      ~data_length:0x100L
  in
  Machine.set_cap m 1 code;
  Machine.set_cap m 2 data;
  let enter () =
    m.Machine.cp0.Cp0.epc <- 0x1000L;
    match Os.Kernel.handle_ccall k with
    | Machine.Resume_at _ -> ()
    | _ -> Alcotest.fail "ccall refused"
  in
  enter ();
  enter ();
  Alcotest.(check int) "two frames" 2 (Os.Kernel.trusted_stack_depth k);
  Os.Kernel.unwind_trusted_stack k;
  Alcotest.(check int) "drained" 0 (Os.Kernel.trusted_stack_depth k);
  Alcotest.(check int) "restores counted" 2 k.Os.Kernel.ctx_restores;
  Alcotest.(check bool) "outermost pcc recovered" true
    (Cap.Capability.base m.Machine.pcc = Cap.Capability.base outer_pcc);
  Alcotest.(check bool) "outermost c0 recovered" true
    (Cap.Capability.base (Machine.cap m 0) = Cap.Capability.base outer_c0)

(* --- revocation (Section 11) --------------------------------------------------- *)

(* A 1 MiB machine with the 128-bit compressed capability format, whose
   tag lines are 16 bytes. *)
let cheri128 = { Machine.default_config with Machine.mem_size = 1 lsl 20; cap_width = Machine.W128 }

(* Store [c] at [addr] as CSC would: in [m]'s capability format, with
   its tag set.  The page must be mapped. *)
let plant m addr c = Machine.store_cap m ~reg:0 Cap.Capability.almighty ~addr c

let test_revoke_sweeps_memory_and_registers () =
  List.iter
    (fun config ->
      let m, _ = fresh ?config () in
      Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
      (* A delegated process would hold bounded capabilities; the reset-state
         almighty registers would all intersect any region. *)
      for i = 0 to 31 do
        Machine.set_cap m i Cap.Capability.null
      done;
      m.Machine.pcc <-
        Cap.Capability.make ~perms:Cap.Perms.execute ~base:0x10000L ~length:0x1000L;
      (* Two capabilities in memory on adjacent tag lines: one into the
         doomed region, one not. *)
      let doomed = Cap.Capability.make ~perms:Cap.Perms.all ~base:0x5000L ~length:0x100L in
      let safe = Cap.Capability.make ~perms:Cap.Perms.all ~base:0x9000L ~length:0x100L in
      let next = Int64.add 0x1000L (Int64.of_int (Mem.Tags.granularity m.Machine.tags)) in
      plant m 0x1000L doomed;
      plant m next safe;
      (* And one in a register. *)
      Machine.set_cap m 7 doomed;
      Machine.set_cap m 8 safe;
      let stats = Os.Revoke.revoke m ~base:0x5000L ~length:0x100L in
      Alcotest.(check int) "memory lines scanned" 2 stats.Os.Revoke.memory_capabilities_scanned;
      Alcotest.(check int) "memory revocations" 1 stats.Os.Revoke.memory_capabilities_revoked;
      Alcotest.(check int) "register revocations" 1 stats.Os.Revoke.register_capabilities_revoked;
      Alcotest.(check bool) "doomed memory tag cleared" false (Mem.Tags.get m.Machine.tags 0x1000L);
      Alcotest.(check bool) "safe memory tag kept" true (Mem.Tags.get m.Machine.tags next);
      Alcotest.(check bool) "doomed register untagged" false
        (Cap.Capability.tag (Machine.cap m 7));
      Alcotest.(check bool) "safe register kept" true (Cap.Capability.tag (Machine.cap m 8));
      (* Revoking the other segment clears the other line. *)
      ignore (Os.Revoke.revoke m ~base:0x9000L ~length:0x100L);
      Alcotest.(check bool) "safe memory tag cleared in turn" false
        (Mem.Tags.get m.Machine.tags next))
    [ None; Some cheri128 ]

let test_use_after_revoke_traps () =
  (* End to end: a program stores a capability, the kernel revokes the
     region, the program's later dereference through the revoked
     capability raises a tag violation. *)
  let m, k = fresh () in
  let trapped = ref None in
  Os.Kernel.set_fault_handler k (fun _ f ->
      trapped := Some f.Os.Kernel.capcause;
      Machine.Halt 61);
  let program =
    Asm.Assembler.assemble
      {|
main:
  la $t0, object
  cincbase $c1, $c0, $t0
  li $t1, 32
  csetlen $c1, $c1, $t1
  li $t2, 7
  csd $t2, $zero, 0($c1)    # use before revocation: fine
  trace.phase_begin $zero   # signal the harness to revoke now
  cld $v1, $zero, 0($c1)    # use after revocation: tag violation
  move $a0, $v1
  li $v0, 1
  syscall
  .data
  .align 5
object: .space 32
|}
  in
  let revoked = ref false in
  Machine.set_trace_hook m (fun m marker _ _ ->
      if marker = Insn.M_phase_begin && not !revoked then begin
        revoked := true;
        let base = Option.get (Asm.Assembler.symbol program "object") in
        ignore (Os.Revoke.revoke m ~base ~length:32L)
      end);
  Os.Kernel.exec k program;
  Alcotest.(check int) "trapped" 61 (Outcome.exited (Machine.run_result ~max_insns:10_000L m));
  match !trapped with
  | Some Cap.Cause.Tag_violation -> ()
  | Some c -> Alcotest.failf "wrong cause %s" (Cap.Cause.to_string c)
  | None -> Alcotest.fail "no trap"

let test_live_roots () =
  let m, _ = fresh () in
  Machine.set_cap m 5 (Cap.Capability.make ~perms:Cap.Perms.all ~base:0x4000L ~length:0x40L);
  let roots = Os.Revoke.live_capability_roots m in
  let reported roots base len = List.exists (fun (b, l) -> b = base && l = len) roots in
  Alcotest.(check bool) "found the root" true (reported roots 0x4000L 0x40L);
  (* registers hold the almighty capability by default: those roots too *)
  Alcotest.(check bool) "nonempty" true (List.length roots > 0);
  (* PCC is a root too: a segment only PCC reaches is not reusable. *)
  m.Machine.pcc <- Cap.Capability.make ~perms:Cap.Perms.execute ~base:0x7000L ~length:0x80L;
  Alcotest.(check bool) "PCC's segment" true
    (reported (Os.Revoke.live_capability_roots m) 0x7000L 0x80L);
  (* Capabilities in memory on adjacent 16-byte lines of a compressed
     machine: each line holds its own root. *)
  let m, _ = fresh ~config:cheri128 () in
  Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  plant m 0x1000L (Cap.Capability.make ~perms:Cap.Perms.all ~base:0x5000L ~length:0x100L);
  plant m 0x1010L (Cap.Capability.make ~perms:Cap.Perms.all ~base:0x6000L ~length:0x100L);
  let roots = Os.Revoke.live_capability_roots m in
  Alcotest.(check bool) "first line's segment" true (reported roots 0x5000L 0x100L);
  Alcotest.(check bool) "second line's segment" true (reported roots 0x6000L 0x100L)

let suites =
  [
    ( "kernel-syscalls",
      [
        Alcotest.test_case "write" `Quick test_write_syscall;
        Alcotest.test_case "unknown syscall" `Quick test_unknown_syscall;
        Alcotest.test_case "sbrk limit" `Quick test_sbrk_limit;
        Alcotest.test_case "cycle counter" `Quick test_cycles_counter;
      ] );
    ( "protected-calls",
      [
        Alcotest.test_case "untagged rejected" `Quick test_ccall_untagged_rejected;
        Alcotest.test_case "unsealed rejected" `Quick test_ccall_unsealed_rejected;
        Alcotest.test_case "otype mismatch rejected" `Quick test_ccall_otype_mismatch_rejected;
        Alcotest.test_case "creturn without call" `Quick test_creturn_without_call;
        Alcotest.test_case "nested calls" `Quick test_nested_ccall;
        Alcotest.test_case "unwind trusted stack" `Quick test_unwind_trusted_stack;
      ] );
    ( "revocation",
      [
        Alcotest.test_case "sweep memory and registers" `Quick
          test_revoke_sweeps_memory_and_registers;
        Alcotest.test_case "use after revoke traps" `Quick test_use_after_revoke_traps;
        Alcotest.test_case "live roots" `Quick test_live_roots;
      ] );
  ]
