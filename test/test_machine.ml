(* Tests for the execution stack: instruction encode/decode, the
   interpreter's MIPS semantics, CHERI capability semantics at the ISA
   level, tagged memory, the kernel model (syscalls, CCall), sandboxing,
   and the cache/TLB performance model. *)

open Beri

let exec_program ?(fault_handler = None) source =
  let m = Machine.create () in
  let k = Os.Kernel.attach m in
  (match fault_handler with Some f -> Os.Kernel.set_fault_handler k f | None -> ());
  let program = Asm.Assembler.assemble source in
  Os.Kernel.exec k program;
  let code = Outcome.exited (Machine.run_result ~max_insns:10_000_000L m) in
  (code, k, m)

let check_exit what expected source =
  let code, _, _ = exec_program source in
  Alcotest.(check int) what expected code

(* Exit with the value in $v1 (by moving it to $a0). *)
let exit_with_v1 = "\n  move $a0, $v1\n  li $v0, 1\n  syscall\n"

(* --- encode/decode ------------------------------------------------------ *)

let gen_insn =
  let open QCheck.Gen in
  let reg = int_bound 31 in
  let imm16 = int_bound 0xFFFF in
  let simm16 = map (fun v -> v - 32768) (int_bound 0xFFFF) in
  let simm8 = map (fun v -> v - 128) (int_bound 0xFF) in
  let sa = int_bound 31 in
  let width = oneofl [ Insn.B; Insn.H; Insn.W; Insn.D ] in
  oneof
    [
      map3 (fun a b c -> Insn.Addu (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Daddu (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Sltu (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.Daddiu (a, b, c)) reg reg simm16;
      map3 (fun a b c -> Insn.Ori (a, b, c)) reg reg imm16;
      map3 (fun a b c -> Insn.Dsll (a, b, c)) reg reg sa;
      map2 (fun a b -> Insn.Lui (a, b)) reg imm16;
      map2 (fun a b -> Insn.Mult (a, b)) reg reg;
      (let* w = width and* u = QCheck.Gen.bool and* t = reg and* b = reg and* o = simm16 in
       return (Insn.Load (w, (match w with Insn.D -> false | _ -> u), t, b, o)));
      (let* w = width and* t = reg and* b = reg and* o = simm16 in
       return (Insn.Store (w, t, b, o)));
      map (fun t -> Insn.J t) (int_bound 0x3FFFFFF);
      map3 (fun a b c -> Insn.Beq (a, b, c)) reg reg simm16;
      map2 (fun a b -> Insn.CGetBase (a, b)) reg reg;
      map3 (fun a b c -> Insn.CIncBase (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.CSetLen (a, b, c)) reg reg reg;
      map3 (fun a b c -> Insn.CAndPerm (a, b, c)) reg reg reg;
      map2 (fun a b -> Insn.CBTU (a, b)) reg simm16;
      map2 (fun a b -> Insn.CBTS (a, b)) reg simm16;
      (let* cd = reg and* cb = reg and* rt = reg and* i = int_bound 63 in
       return (Insn.CLC (cd, cb, rt, 32 * (i - 32))));
      (let* cs = reg and* cb = reg and* rt = reg and* i = int_bound 63 in
       return (Insn.CSC (cs, cb, rt, 32 * (i - 32))));
      (let* w = width and* u = QCheck.Gen.bool and* rd = reg and* cb = reg and* rt = reg
       and* i = simm8 in
       return (Insn.CLoad (w, u, rd, cb, rt, i)));
      (let* w = width and* rs = reg and* cb = reg and* rt = reg and* i = simm8 in
       return (Insn.CStore (w, rs, cb, rt, i)));
      map2 (fun a b -> Insn.CJALR (a, b)) reg reg;
      map3 (fun a b c -> Insn.CSeal (a, b, c)) reg reg reg;
      map2 (fun a b -> Insn.CCall (a, b)) reg reg;
      return Insn.CReturn;
      return Insn.Syscall;
      return Insn.Eret;
      (let* m = oneofl [ Insn.M_alloc; Insn.M_free; Insn.M_phase_begin; Insn.M_phase_end ]
       and* a = reg and* b = reg in
       return (Insn.Trace (m, a, b)));
    ]

let prop_code_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"encode/decode roundtrip"
    (QCheck.make ~print:Insn.to_string gen_insn)
    (fun insn -> Code.decode (Code.encode insn) = insn)

let prop_decode_total =
  QCheck.Test.make ~count:2000 ~name:"decode never misattributes"
    QCheck.(int_bound 0x3FFFFFFF)
    (fun w ->
      (* Decoding an arbitrary word either fails or yields an instruction
         whose canonical encoding decodes back to itself — decode cannot
         conflate two distinct instructions (don't-care fields aside). *)
      match Code.decode w with
      | insn -> Code.decode (Code.encode insn) = insn
      | exception Code.Decode_error _ -> true)

(* --- basic execution ----------------------------------------------------- *)

let test_arith () =
  check_exit "arith result" 42
    ({|
main:
  li $t0, 6
  li $t1, 7
  mult $t0, $t1
  mflo $v1
|}
    ^ exit_with_v1)

let test_memory () =
  check_exit "store/load roundtrip" 123
    ({|
main:
  li $t0, 0x300000   # within the heap region? use data segment instead
  la $t0, buf
  li $t1, 123
  sd $t1, 0($t0)
  ld $v1, 0($t0)
  b done
done:
|}
    ^ exit_with_v1 ^ "\n.data\nbuf: .space 64\n")

let test_subword_memory () =
  check_exit "byte/halfword sign extension" 3
    ({|
main:
  la $t0, buf
  li $t1, 0xFFFF
  sh $t1, 0($t0)
  lh $t2, 0($t0)     # -1
  lhu $t3, 0($t0)    # 65535
  li $t4, 0xFFFF
  bne $t3, $t4, fail
  li $t4, -1
  bne $t2, $t4, fail
  li $v1, 3
  b done
fail:
  li $v1, 99
done:
|}
    ^ exit_with_v1 ^ "\n.data\nbuf: .space 16\n")

let test_branches_loops () =
  (* sum 1..10 = 55 *)
  check_exit "loop sum" 55
    ({|
main:
  li $t0, 10
  li $v1, 0
loop:
  daddu $v1, $v1, $t0
  daddiu $t0, $t0, -1
  bgtz $t0, loop
|}
    ^ exit_with_v1)

let test_function_call () =
  check_exit "jal/jr" 21
    ({|
main:
  li $a0, 20
  jal incr
  move $v1, $v0
  b done
incr:
  daddiu $v0, $a0, 1
  jr $ra
done:
|}
    ^ exit_with_v1)

let test_console () =
  let _, k, _ =
    exec_program
      {|
main:
  li $a0, 72      # 'H'
  li $v0, 2
  syscall
  li $a0, 105     # 'i'
  li $v0, 2
  syscall
  li $v0, 1
  li $a0, 0
  syscall
|}
  in
  Alcotest.(check string) "console" "Hi" (Os.Kernel.console k)

let test_sbrk () =
  check_exit "sbrk returns old brk and maps pages" 7
    ({|
main:
  li $a0, 4096
  li $v0, 3
  syscall          # v0 = old brk = heap base
  move $t0, $v0
  li $t1, 7
  sd $t1, 0($t0)
  ld $v1, 0($t0)
|}
    ^ exit_with_v1)

(* --- CHERI semantics at ISA level ---------------------------------------- *)

let test_cap_derive_and_access () =
  check_exit "capability bounds ok" 5
    ({|
main:
  la $t0, buf
  cincbase $c1, $c0, $t0     # c1 = cap at buf
  li $t1, 32
  csetlen $c1, $c1, $t1      # 32-byte object
  li $t2, 5
  csd $t2, $zero, 0($c1)     # store via capability
  cld $v1, $zero, 0($c1)     # load back
|}
    ^ exit_with_v1 ^ "\n.data\nbuf: .space 64\n")

let test_cap_bounds_trap () =
  let trapped = ref None in
  let handler _k (fault : Os.Kernel.fault) =
    trapped := Some fault.Os.Kernel.capcause;
    Machine.Halt 77
  in
  let code, _, _ =
    exec_program ~fault_handler:(Some handler)
      ({|
main:
  la $t0, buf
  cincbase $c1, $c0, $t0
  li $t1, 32
  csetlen $c1, $c1, $t1
  li $t2, 32
  cld $v1, $t2, 0($c1)    # one past the end: length violation
|}
      ^ exit_with_v1 ^ "\n.data\nbuf: .space 64\n")
  in
  Alcotest.(check int) "trap exit" 77 code;
  match !trapped with
  | Some Cap.Cause.Length_violation -> ()
  | Some c -> Alcotest.failf "wrong cause: %s" (Cap.Cause.to_string c)
  | None -> Alcotest.fail "no CP2 fault observed"

let test_cap_perm_trap () =
  let trapped = ref None in
  let handler _k (fault : Os.Kernel.fault) =
    trapped := Some fault.Os.Kernel.capcause;
    Machine.Halt 78
  in
  let code, _, _ =
    exec_program ~fault_handler:(Some handler)
      ({|
main:
  la $t0, buf
  cincbase $c1, $c0, $t0
  li $t1, 32
  csetlen $c1, $c1, $t1
  li $t1, 0x15            # Global|Load|Load_cap: no store permission
  candperm $c1, $c1, $t1
  li $t2, 5
  csd $t2, $zero, 0($c1)  # must trap: store permission disclaimed
|}
      ^ exit_with_v1 ^ "\n.data\nbuf: .space 64\n")
  in
  Alcotest.(check int) "trap exit" 78 code;
  match !trapped with
  | Some Cap.Cause.Permit_store_violation -> ()
  | Some c -> Alcotest.failf "wrong cause: %s" (Cap.Cause.to_string c)
  | None -> Alcotest.fail "no CP2 fault observed"

let test_tag_clear_on_data_store () =
  check_exit "data store clears in-memory capability tag" 1
    ({|
main:
  la $t0, slot
  cincbase $c1, $c0, $t0
  li $t1, 32
  csetlen $c1, $c1, $t1
  csc $c2, $zero, 0($c1)    # store a (valid) capability: tag set
  clc $c3, $zero, 0($c1)
  cgettag $t2, $c3
  beqz $t2, fail            # must be tagged after CSC/CLC
  li $t3, 0xAB
  csb $t3, $zero, 0($c1)    # general-purpose store: clears the tag
  clc $c4, $zero, 0($c1)
  cgettag $t4, $c4
  bnez $t4, fail            # must be untagged now
  li $v1, 1
  b done
fail:
  li $v1, 0
done:
|}
    ^ exit_with_v1 ^ "\n.data\n.align 5\nslot: .space 32\n")

let test_memcpy_preserves_caps () =
  (* CLC/CSC copy 256-bit blocks obliviously (Section 4.2): a memcpy loop
     moving capability-sized blocks preserves tags for capabilities and
     keeps data untagged. *)
  check_exit "capability-oblivious memcpy" 1
    ({|
main:
  la $t0, src
  cincbase $c1, $c0, $t0
  li $t1, 64
  csetlen $c1, $c1, $t1
  csc $c0, $zero, 0($c1)     # src[0] = a capability
  li $t2, 0x1234
  csd $t2, $zero, 32($c1)    # src[32] = plain data
  la $t0, dst
  cincbase $c2, $c0, $t0
  csetlen $c2, $c2, $t1
  # copy two 32-byte blocks through capability registers
  clc $c3, $zero, 0($c1)
  csc $c3, $zero, 0($c2)
  clc $c3, $zero, 32($c1)
  csc $c3, $zero, 32($c2)
  clc $c4, $zero, 0($c2)
  cgettag $t3, $c4
  beqz $t3, fail             # capability survived with tag
  clc $c5, $zero, 32($c2)
  cgettag $t4, $c5
  bnez $t4, fail             # data stayed untagged
  cld $t5, $zero, 32($c2)
  li $t6, 0x1234
  bne $t5, $t6, fail         # and its value survived
  li $v1, 1
  b done
fail:
  li $v1, 0
done:
|}
    ^ exit_with_v1 ^ "\n.data\n.align 5\nsrc: .space 64\ndst: .space 64\n")

let test_cap_branches () =
  check_exit "cbtu/cbts" 1
    ({|
main:
  ccleartag $c1, $c1
  cbtu $c1, was_untagged
  li $v1, 0
  b done
was_untagged:
  cbts $c0, was_tagged
  li $v1, 0
  b done
was_tagged:
  li $v1, 1
done:
|}
    ^ exit_with_v1)

let test_ctoptr_roundtrip () =
  check_exit "ctoptr/cfromptr" 1
    ({|
main:
  la $t0, buf
  cincbase $c1, $c0, $t0
  ctoptr $t1, $c1, $c0
  bne $t1, $t0, fail        # pointer equals original address (C0 base 0)
  cfromptr $c2, $c0, $t1
  cgetbase $t2, $c2
  bne $t2, $t0, fail
  # NULL handling
  cfromptr $c3, $c0, $zero
  cgettag $t3, $c3
  bnez $t3, fail            # NULL cast yields untagged capability
  li $v1, 1
  b done
fail:
  li $v1, 0
done:
|}
    ^ exit_with_v1 ^ "\n.data\nbuf: .space 8\n")

let test_cjalr () =
  check_exit "cjalr/cjr capability call" 9
    ({|
main:
  la $t0, callee
  cincbase $c12, $c0, $t0   # code capability for callee
  cjalr $c17, $c12          # link into c17
  b done                    # after return
callee:
  li $v1, 9
  cjr $c17                  # return via link capability
done:
|}
    ^ exit_with_v1)

let test_ccall_creturn () =
  (* Build a sealed code/data pair, CCall into it, observe the domain ran
     with the unsealed data capability, then CReturn back. *)
  let code, k, _ =
    exec_program
      ({|
main:
  # authority capability for otype 42: base 42, len 1, with Permit_Seal
  li $t0, 42
  cincbase $c4, $c0, $t0
  li $t1, 1
  csetlen $c4, $c4, $t1
  # code capability for the compartment
  la $t2, compartment
  cincbase $c5, $c0, $t2
  cseal $c1, $c5, $c4       # sealed code cap (otype 42)
  # data capability: the compartment's private buffer
  la $t3, private
  cincbase $c6, $c0, $t3
  li $t4, 32
  csetlen $c6, $c6, $t4
  cseal $c2, $c6, $c4       # sealed data cap (otype 42)
  ccall $c1, $c2
  # back from compartment: v1 was set by it through its private data
  move $a0, $v1
  li $v0, 1
  syscall

compartment:
  li $t5, 33
  csd $t5, $zero, 0($c26)   # write through invoked data capability
  cld $v1, $zero, 0($c26)
  creturn
|}
      ^ "\n.data\n.align 5\nprivate: .space 32\n")
  in
  Alcotest.(check int) "compartment result" 33 code;
  Alcotest.(check int) "one protected call" 1 k.Os.Kernel.ccalls

let test_sealed_cap_unusable () =
  let trapped = ref None in
  let handler _k (fault : Os.Kernel.fault) =
    trapped := Some fault.Os.Kernel.capcause;
    Machine.Halt 79
  in
  let code, _, _ =
    exec_program ~fault_handler:(Some handler)
      ({|
main:
  li $t0, 7
  cincbase $c4, $c0, $t0
  li $t1, 1
  csetlen $c4, $c4, $t1
  la $t2, buf
  cincbase $c5, $c0, $t2
  cseal $c6, $c5, $c4
  cld $v1, $zero, 0($c6)   # dereferencing a sealed capability traps
|}
      ^ exit_with_v1 ^ "\n.data\nbuf: .space 32\n")
  in
  Alcotest.(check int) "trap exit" 79 code;
  match !trapped with
  | Some Cap.Cause.Seal_violation -> ()
  | Some c -> Alcotest.failf "wrong cause: %s" (Cap.Cause.to_string c)
  | None -> Alcotest.fail "no CP2 fault observed"

(* --- legacy sandboxing (Section 5.3) -------------------------------------- *)

let test_sandbox_confines_legacy_code () =
  (* Legacy (capability-unaware) code in a sandbox: its ordinary loads and
     stores are bounded by the restricted C0.  The sandboxed blob below
     tries to read address 0x20000 — outside its micro-address space —
     and must take a CP2 length violation, invisible to itself. *)
  let m = Machine.create () in
  let k = Os.Kernel.attach m in
  let escaped = ref false and trapped = ref None in
  Os.Kernel.set_fault_handler k (fun _ fault ->
      trapped := Some fault.Os.Kernel.exc;
      Machine.Halt 55);
  let program =
    Asm.Assembler.assemble
      {|
  .text 0x40000
sandbox_entry:
  li $t0, 0x1000
  sw $t0, 0($t0)       # in-bounds store: allowed (C0-relative)
  lui $t1, 2           # 0x20000: beyond the sandbox's 8 KB
  lw $t2, 0($t1)       # must trap
  sw $t2, 4($t0)
  break
|}
  in
  Asm.Assembler.load m program;
  Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  let _sandbox = Os.Sandbox.enter m ~base:0x40000L ~length:0x2000L ~entry:0x40000L in
  (match Machine.run_result ~max_insns:1_000L m with
  | Machine.Exited 55 -> ()
  | r -> Alcotest.failf "%a" Machine.pp_run_result r
  | exception _ -> escaped := true);
  Alcotest.(check bool) "did not escape" false !escaped;
  match !trapped with
  | Some (Cp0.Cp2 Cap.Cause.Length_violation) -> ()
  | Some e -> Alcotest.failf "wrong exception: %s" (Cp0.exc_to_string e)
  | None -> Alcotest.fail "no fault observed"

(* Note: the sandboxed store above goes to sandbox-relative 0x1000, i.e.
   physical 0x41000 — C0-relative addressing relocates the sandbox. *)

let test_sandbox_relocation () =
  let m = Machine.create () in
  let _k = Os.Kernel.attach m in
  let program =
    Asm.Assembler.assemble
      {|
  .text 0x40000
entry:
  li $t0, 0x100
  li $t1, 77
  sw $t1, 0($t0)     # sandbox-relative address 0x100
  break
|}
  in
  Asm.Assembler.load m program;
  Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  let sandbox = Os.Sandbox.enter m ~base:0x40000L ~length:0x2000L ~entry:0x40000L in
  Os.Kernel.set_fault_handler (Os.Kernel.attach m) (fun _ _ -> Machine.Halt 0);
  Alcotest.(check int) "exit" 0 (Outcome.exited (Machine.run_result ~max_insns:100L m));
  Os.Sandbox.leave m sandbox;
  Alcotest.(check int) "store landed inside sandbox" 77
    (Mem.Phys.read_u32 m.Machine.phys 0x40100L)

(* --- context switching ---------------------------------------------------- *)

let test_context_roundtrip () =
  let m = Machine.create () in
  Machine.set_gpr m 5 123L;
  Machine.set_cap m 7 (Cap.Capability.make ~perms:Cap.Perms.load ~base:0x100L ~length:0x10L);
  let ctx = Os.Context.save m in
  Machine.set_gpr m 5 0L;
  Machine.set_cap m 7 Cap.Capability.null;
  Machine.set_pc m 0xDEADL;
  Os.Context.restore m ctx;
  Alcotest.(check int64) "gpr restored" 123L (Machine.gpr m 5);
  Alcotest.(check bool) "cap restored" true
    (Cap.Capability.equal (Machine.cap m 7)
       (Cap.Capability.make ~perms:Cap.Perms.load ~base:0x100L ~length:0x10L));
  Alcotest.(check int) "switch footprint" (256 + 1056) Os.Context.switch_bytes

(* --- performance model ----------------------------------------------------- *)

let test_cache_model () =
  let c = Mem.Cache.create ~name:"t" ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  (* 1024 B / 32 B = 32 lines; 16 sets x 2 ways. *)
  ignore (Mem.Cache.access c ~addr:0L ~write:false);
  Alcotest.(check int) "first touch misses" 1 c.Mem.Cache.misses;
  ignore (Mem.Cache.access c ~addr:16L ~write:false);
  Alcotest.(check int) "same line hits" 1 c.Mem.Cache.hits;
  (* Three distinct lines mapping to set 0 with assoc 2: eviction. *)
  ignore (Mem.Cache.access c ~addr:512L ~write:true);
  ignore (Mem.Cache.access c ~addr:1024L ~write:false);
  ignore (Mem.Cache.access c ~addr:0L ~write:false);
  Alcotest.(check int) "lru eviction misses" 4 c.Mem.Cache.misses;
  (* The dirty line at 512 was evicted by the re-touch of 0. *)
  ignore (Mem.Cache.access c ~addr:512L ~write:false);
  Alcotest.(check bool) "writeback happened" true (c.Mem.Cache.writebacks >= 1)

let test_tlb_model () =
  let tlb = Mem.Tlb.create ~entries:2 () in
  Mem.Tlb.map tlb ~vaddr:0L ~len:(4096 * 4) Mem.Tlb.prot_rwx;
  ignore (Mem.Tlb.touch tlb 0L);
  ignore (Mem.Tlb.touch tlb 4096L);
  Alcotest.(check bool) "hit on resident page" true (Mem.Tlb.touch tlb 0L);
  ignore (Mem.Tlb.touch tlb 8192L);
  (* Capacity 2: page 4096 was LRU and got evicted. *)
  Alcotest.(check bool) "miss after eviction" false (Mem.Tlb.touch tlb 4096L);
  Alcotest.(check bool) "protection lookup" true (Mem.Tlb.protection tlb 0L).Mem.Tlb.valid;
  Alcotest.(check bool) "unmapped invalid" false (Mem.Tlb.protection tlb 0x100000L).Mem.Tlb.valid

let test_timing_counts () =
  let _, _, m =
    exec_program
      ({|
main:
  li $t0, 100
loop:
  daddiu $t0, $t0, -1
  bgtz $t0, loop
  li $v1, 0
|}
      ^ exit_with_v1)
  in
  Alcotest.(check bool) "instructions counted" true (m.Machine.instret > 200);
  Alcotest.(check bool) "cycles >= instructions" true (m.Machine.cycles >= m.Machine.instret)

(* Decode-cache coherence under self-modifying code.  The interpreter
   caches decoded instructions by PC; like real MIPS I-caches, stores are
   NOT snooped — code that rewrites itself must execute an explicit
   synchronization (here [Machine.invalidate_icache], the model's
   CACHE/SYNCI).  This pins down both halves of that contract: without
   the flush the stale decode is (observably) still executed, and after
   the flush the newly stored word is fetched and decoded. *)
let test_smc_decode_coherence () =
  let m = Machine.create () in
  Machine.set_timing m false;
  Machine.set_kernel m (fun _ ctx ->
      match ctx.Machine.exc with
      | Cp0.Breakpoint -> Machine.Halt 0
      | e -> Alcotest.failf "unexpected exception: %s" (Cp0.exc_to_string e));
  Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  (* target: v1 <- 1, then break *)
  let target = 0x10000L in
  Mem.Phys.write_u32 m.Machine.phys target (Code.encode (Insn.Daddiu (3, 0, 1)));
  Mem.Phys.write_u32 m.Machine.phys (Int64.add target 4L) (Code.encode Insn.Break);
  (* patcher: sw $t1, 0($t0), then break — a store through the machine's
     own data path, aimed at the already-executed target PC.  Placed near
     the target so it does not alias the target's direct-mapped decode
     slot (which would flush the entry by collision and mask the staleness
     this test is about). *)
  let patcher = 0x10100L in
  Mem.Phys.write_u32 m.Machine.phys patcher (Code.encode (Insn.Store (Insn.W, 9, 8, 0)));
  Mem.Phys.write_u32 m.Machine.phys (Int64.add patcher 4L) (Code.encode Insn.Break);
  let run_at pc =
    Machine.set_pc m pc;
    Alcotest.(check int) "exit" 0 (Outcome.exited (Machine.run_result ~max_insns:100L m))
  in
  run_at target;
  Alcotest.(check int64) "original insn executed" 1L (Machine.gpr m 3);
  (* machine-store the replacement word (v1 <- 2) over the target PC *)
  Machine.set_gpr m 8 target;
  Machine.set_gpr m 9 (Int64.of_int (Code.encode (Insn.Daddiu (3, 0, 2))));
  run_at patcher;
  Alcotest.(check int) "memory holds the new word"
    (Code.encode (Insn.Daddiu (3, 0, 2)))
    (Mem.Phys.read_u32 m.Machine.phys target);
  (* without synchronization the decode cache still serves the old insn *)
  Machine.set_gpr m 3 0L;
  run_at target;
  Alcotest.(check int64) "stale decode without invalidate" 1L (Machine.gpr m 3);
  (* explicit flush: the new instruction becomes visible *)
  Machine.invalidate_icache m;
  Machine.set_gpr m 3 0L;
  run_at target;
  Alcotest.(check int64) "new insn after invalidate_icache" 2L (Machine.gpr m 3)

(* The superblock tier above the decode cache adds a second place stale
   code could hide: a pinned block carries its own pre-decoded copy of
   the instructions.  Unlike the decode cache, code pages ARE
   store-snooped — a store to a page the decode cache was filled from
   retires the whole tier — so a pinned block can never serve a decode
   the plain engine's direct-mapped cache would already have replaced.
   The architectural contract stays exactly the plain engine's: stale
   until [invalidate_icache], fresh after.  This pins the snoop both
   ways (through the host-side translation counter: a code-page store
   retires blocks, a data-page store does not) and the contract. *)
let test_smc_superblock_coherence () =
  let m = Machine.create () in
  Machine.set_timing m false;
  Machine.set_kernel m (fun _ ctx ->
      match ctx.Machine.exc with
      | Cp0.Breakpoint -> Machine.Halt 0
      | e -> Alcotest.failf "unexpected exception: %s" (Cp0.exc_to_string e));
  Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  let target = 0x10000L in
  Mem.Phys.write_u32 m.Machine.phys target (Code.encode (Insn.Daddiu (3, 0, 1)));
  Mem.Phys.write_u32 m.Machine.phys (Int64.add target 4L) (Code.encode (Insn.Daddiu (4, 0, 7)));
  Mem.Phys.write_u32 m.Machine.phys (Int64.add target 8L) (Code.encode Insn.Break);
  let patcher = 0x10100L in
  Mem.Phys.write_u32 m.Machine.phys patcher (Code.encode (Insn.Store (Insn.W, 9, 8, 0)));
  Mem.Phys.write_u32 m.Machine.phys (Int64.add patcher 4L) (Code.encode Insn.Break);
  let run_at pc =
    Machine.set_pc m pc;
    Alcotest.(check int) "exit" 0 (Outcome.exited (Machine.run_result ~max_insns:100L m))
  in
  (* first pass warms the decode cache; the second pins a superblock *)
  run_at target;
  run_at target;
  Alcotest.(check bool) "superblock pinned" true (m.Machine.sb_translations > 0);
  let formed = m.Machine.sb_translations in
  (* patch the block's second instruction through the machine's own data
     path: the store intersects a translated region, retiring the tier *)
  Machine.set_gpr m 8 (Int64.add target 4L);
  Machine.set_gpr m 9 (Int64.of_int (Code.encode (Insn.Daddiu (4, 0, 9))));
  run_at patcher;
  Machine.set_gpr m 4 0L;
  run_at target;
  Alcotest.(check bool) "block re-translated after store snoop" true
    (m.Machine.sb_translations > formed);
  (* re-translation reads the still-stale decode cache: same observable
     staleness as the plain engine until the explicit synchronization *)
  Alcotest.(check int64) "stale decode without invalidate" 7L (Machine.gpr m 4);
  Machine.invalidate_icache m;
  Machine.set_gpr m 4 0L;
  run_at target;
  Alcotest.(check int64) "new insn after invalidate_icache" 9L (Machine.gpr m 4);
  (* A store to a page no decode fill came from leaves pinned blocks
     alone: the rerun translates nothing. *)
  run_at target;
  let formed = m.Machine.sb_translations in
  Machine.set_gpr m 8 0x40000L;
  run_at patcher;
  run_at target;
  Alcotest.(check int) "data-page store keeps the block" formed m.Machine.sb_translations

(* [invalidate_icache] resets only the decode slots and superblocks
   filled since the previous call, from a bounded log, and falls back to
   a full reset once the log overflows.  The program is [pairs] one-pair
   blocks (an add, then a branch to the next pair); the rewritten
   instruction is the last one filled, so a reset that missed any fill,
   logged or not, would leave its stale decode or block in place.  At
   1200 pairs the program fills 2401 decode slots and pins 1200 blocks,
   past the log. *)
let test_invalidate_every_fill () =
  List.iter
    (fun pairs ->
      let m = Machine.create () in
      Machine.set_timing m false;
      Machine.set_kernel m (fun _ ctx ->
          match ctx.Machine.exc with
          | Cp0.Breakpoint -> Machine.Halt 0
          | e -> Alcotest.failf "unexpected exception: %s" (Cp0.exc_to_string e));
      Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
      let base = 0x20040 in
      let put i insn =
        Mem.Phys.write_u32 m.Machine.phys (Int64.of_int (base + (4 * i))) (Code.encode insn)
      in
      for k = 0 to pairs - 1 do
        put (2 * k) (Insn.Daddiu (3, 3, 1));
        put ((2 * k) + 1) (Insn.Beq (0, 0, 0))
      done;
      put (2 * pairs) Insn.Break;
      let run () =
        Machine.set_gpr m 3 0L;
        Machine.set_pc m (Int64.of_int base);
        Alcotest.(check int) "exit" 0 (Outcome.exited (Machine.run_result ~max_insns:10_000L m));
        Machine.gpr m 3
      in
      ignore (run ());
      Alcotest.(check int64) "second pass" (Int64.of_int pairs) (run ());
      Alcotest.(check bool) "every pair pinned" true (m.Machine.sb_translations >= pairs);
      put (2 * (pairs - 1)) (Insn.Daddiu (3, 3, 5));
      Alcotest.(check int64) "stale without invalidate" (Int64.of_int pairs) (run ());
      Machine.invalidate_icache m;
      Alcotest.(check int64) "new insn after invalidate_icache" (Int64.of_int (pairs + 4)) (run ()))
    [ 8; 1200 ]

(* Trap-heavy engine differential: a hot straight-line block whose load
   walks off the end of its capability must produce identical
   architectural results under the plain and superblock engines — same
   trap, same EPC, same retired/cycle counts (the superblock tier
   charges its own I-side costs), same data flow.  The probe-attached
   input is the differential over the probe inside the block loop (a
   probe keeps blocks, unlike a step hook): both engines must also agree
   on every architectural counter, the probe's class counters included. *)
let test_engine_trap_differential () =
  let source =
    {|
main:
  la $t0, buf
  cincbase $c1, $c0, $t0
  li $t1, 64
  csetlen $c1, $c1, $t1
  li $t2, 0
  li $t3, 0
loop:
  cld $v1, $t3, 0($c1)    # traps once $t3 walks past the 64-byte bound
  daddu $t2, $t2, $v1
  daddiu $t3, $t3, 8
  b loop
|}
    ^ "\n.data\n.align 5\nbuf: .space 64\n"
  in
  let run ~probe engine =
    let m = Machine.create () in
    Machine.set_engine m engine;
    if probe then Machine.set_probe m (Some (Obs.Probe.create ()));
    let k = Os.Kernel.attach m in
    Os.Kernel.set_fault_handler k (fun _ (fault : Os.Kernel.fault) ->
        Machine.Halt (100 + Cap.Cause.code fault.Os.Kernel.capcause));
    Os.Kernel.exec k (Asm.Assembler.assemble source);
    let code = Outcome.exited (Machine.run_result ~max_insns:100_000L m) in
    (code, m)
  in
  List.iter
    (fun probe ->
      let code_p, mp = run ~probe Machine.Plain in
      let code_s, ms = run ~probe Machine.Superblock in
      Alcotest.(check int) "exit codes agree" code_p code_s;
      Alcotest.(check int) "length violation"
        (100 + Cap.Cause.code Cap.Cause.Length_violation)
        code_s;
      Alcotest.(check int) "instret agrees" mp.Machine.instret ms.Machine.instret;
      Alcotest.(check int) "cycles agree" mp.Machine.cycles ms.Machine.cycles;
      Alcotest.(check int64) "accumulator agrees" (Machine.gpr mp 10) (Machine.gpr ms 10);
      Alcotest.(check int64) "epc agrees" mp.Machine.cp0.Cp0.epc ms.Machine.cp0.Cp0.epc;
      Alcotest.(check bool) "superblocks retired" true (ms.Machine.sb_retired > 0);
      if probe then begin
        let arch m = Obs.Counters.(to_assoc (architectural (Machine.read_counters m))) in
        Alcotest.(check (list (pair string int64)))
          "architectural counters agree" (arch mp) (arch ms);
        Alcotest.(check bool) "probe classified cap ops" true
          (Obs.Counters.get (Machine.read_counters ms) Obs.Counters.cap_ops > 0L)
      end)
    [ false; true ]

(* The loop both fetch-check tests run, at 0x10000: one prologue
   instruction, then seven daddiu and a bne per iteration (eight
   retirements), then a break.  The superblock engine pins the seven
   daddiu and the bne at 0x10004 as one eight-element block. *)
let fetch_loop_entry = 0x10000L

let fetch_loop_machine engine =
  let m = Machine.create () in
  Machine.set_engine m engine;
  Machine.set_timing m false;
  Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  let body =
    [ Insn.Daddiu (8, 0, 10) ]
    @ List.init 6 (fun i -> Insn.Daddiu (9 + i, 9 + i, 1))
    @ [ Insn.Daddiu (8, 8, -1); Insn.Bne (8, 0, -8); Insn.Break ]
  in
  List.iteri
    (fun i insn ->
      Mem.Phys.write_u32 m.Machine.phys
        (Int64.add fetch_loop_entry (Int64.of_int (4 * i)))
        (Code.encode insn))
    body;
  (* a break halts; any other exception halts with (cause, victim PC,
     instret) recorded *)
  let trap = ref None in
  Machine.set_kernel m (fun m ctx ->
      match ctx.Machine.exc with
      | Cp0.Breakpoint -> Machine.Halt 0
      | exc ->
          trap := Some (Cp0.exc_to_string exc, ctx.Machine.victim_pc, m.Machine.instret);
          Machine.Halt 1);
  let run () =
    Machine.set_pc m fetch_loop_entry;
    trap := None;
    let code = Outcome.exited (Machine.run_result ~max_insns:1_000L m) in
    (code, !trap)
  in
  (m, run)

let trap_t = Alcotest.(option (triple string int64 int))

(* A step hook that rewrites PCC mid-block (as the fault injector's PCC
   site does) must see the next fetch refused at the same PC and instret
   under both engines: the superblock engine may not keep executing a
   block whose PCC check was hoisted before the hook ran. *)
let test_step_hook_pcc_rewrite () =
  let run engine =
    let m, run = fetch_loop_machine engine in
    Machine.set_step_hook m
      (Some
         (fun m ->
           if m.Machine.instret = 43 then m.Machine.pcc <- Cap.Capability.clear_tag m.Machine.pcc));
    run ()
  in
  let plain = run Machine.Plain in
  Alcotest.(check (pair int trap_t)) "engines agree" plain (run Machine.Superblock);
  Alcotest.(check (pair int trap_t)) "trap at the first fetch after the rewrite"
    (1, Some (Cp0.exc_to_string (Cp0.Cp2 Cap.Cause.Tag_violation), 0x1000cL, 43))
    plain

(* Unmapping a code page from the host must refuse its next fetch even
   when the decode cache and the superblock tier are warm: every tier
   checks the TLB, so warm and cold runs trap identically. *)
let test_unmapped_code_page () =
  let warm_then_cold engine =
    let m, run = fetch_loop_machine engine in
    (* two clean runs: the first fills the decode cache, the second pins blocks *)
    Alcotest.(check (pair int trap_t)) "clean run" (0, None) (run ());
    Alcotest.(check (pair int trap_t)) "clean rerun" (0, None) (run ());
    if engine = Machine.Superblock then
      Alcotest.(check bool) "blocks pinned" true (m.Machine.sb_translations > 0);
    Mem.Tlb.unmap m.Machine.hier.Mem.Hierarchy.tlb ~vaddr:fetch_loop_entry ~len:4096;
    let warm = run () in
    Machine.invalidate_icache m;
    (warm, run ())
  in
  let warm_p, cold_p = warm_then_cold Machine.Plain in
  let warm_s, cold_s = warm_then_cold Machine.Superblock in
  let expected = (1, Some (Cp0.exc_to_string Cp0.Tlb_load, fetch_loop_entry, 164)) in
  Alcotest.(check (pair int trap_t)) "warm plain" expected warm_p;
  Alcotest.(check (pair int trap_t)) "warm superblock" expected warm_s;
  Alcotest.(check (pair int trap_t)) "cold plain" expected cold_p;
  Alcotest.(check (pair int trap_t)) "cold superblock" expected cold_s

(* Checkpoint/restore round-trip: freeze a machine mid-program, let it
   run to completion, rewind, and rerun — digest, counters, and memory
   must retrace exactly.  This is the contract the serving pool's warm
   reset stands on. *)
let test_checkpoint_restore_roundtrip () =
  let m = Machine.create () in
  Machine.set_engine m Machine.Superblock;
  let k = Os.Kernel.attach m in
  let source =
    {|
main:
  li $t0, 0x200000
  li $a0, 0x400000
  li $v0, 3
  syscall
  li $t1, 0
  li $t2, 2000
loop:
  sd $t1, 0($t0)
  daddiu $t0, $t0, 64
  daddiu $t1, $t1, 3
  daddiu $t2, $t2, -1
  bgtz $t2, loop
  li $v0, 1
  li $a0, 0
  syscall
|}
  in
  Os.Kernel.exec k (Asm.Assembler.assemble source);
  (* partway into the loop *)
  ignore (Machine.run_result ~max_insns:500L m);
  let mid =
    (Machine.state_digest m, m.Machine.cycles, m.Machine.instret,
     Mem.Phys.read_u64 m.Machine.phys 0x207D00L)
  in
  let ck = Machine.checkpoint m in
  let code = Outcome.exited (Machine.run_result ~max_insns:1_000_000L m) in
  Alcotest.(check int) "first run exits" 0 code;
  let fin =
    (Machine.state_digest m, m.Machine.cycles, m.Machine.instret,
     Mem.Phys.read_u64 m.Machine.phys 0x207D00L)
  in
  Alcotest.(check bool) "the probe word was written after the checkpoint" true (mid <> fin);
  let pages = Machine.restore m ck in
  Alcotest.(check bool) "restore rewound dirtied pages" true (pages > 0);
  Alcotest.(check bool) "restored state matches the checkpoint instant" true
    (mid
    = (Machine.state_digest m, m.Machine.cycles, m.Machine.instret,
       Mem.Phys.read_u64 m.Machine.phys 0x207D00L));
  let code = Outcome.exited (Machine.run_result ~max_insns:1_000_000L m) in
  Alcotest.(check int) "rerun exits" 0 code;
  Alcotest.(check bool) "rerun retraces the first run exactly" true
    (fin
    = (Machine.state_digest m, m.Machine.cycles, m.Machine.instret,
       Mem.Phys.read_u64 m.Machine.phys 0x207D00L))

(* SMC coherence across restore, both directions: (a) code decoded (and
   superblock-pinned) after the checkpoint must not survive a rewind of
   its page — restore intersects the rewound dirty pages with the pages
   the decode cache was filled from and flushes on overlap; (b) the
   store-snoop over translated regions keeps working after a restore, so
   post-restore patches still retire stale superblocks. *)
let test_checkpoint_smc_coherence () =
  let m = Machine.create () in
  Machine.set_engine m Machine.Superblock;
  Machine.set_timing m false;
  Machine.set_kernel m (fun _ ctx ->
      match ctx.Machine.exc with
      | Cp0.Breakpoint -> Machine.Halt 0
      | e -> Alcotest.failf "unexpected exception: %s" (Cp0.exc_to_string e));
  Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  let target = 0x10000L in
  let original = Code.encode (Insn.Daddiu (3, 0, 1)) in
  Mem.Phys.write_u32 m.Machine.phys target original;
  Mem.Phys.write_u32 m.Machine.phys (Int64.add target 4L) (Code.encode Insn.Break);
  let patcher = 0x10100L in
  Mem.Phys.write_u32 m.Machine.phys patcher (Code.encode (Insn.Store (Insn.W, 9, 8, 0)));
  Mem.Phys.write_u32 m.Machine.phys (Int64.add patcher 4L) (Code.encode Insn.Break);
  let run_at pc =
    Machine.set_pc m pc;
    Alcotest.(check int) "exit" 0 (Outcome.exited (Machine.run_result ~max_insns:100L m))
  in
  (* two passes pin a superblock over the target before the checkpoint *)
  run_at target;
  run_at target;
  Alcotest.(check int64) "original insn executed" 1L (Machine.gpr m 3);
  let ck = Machine.checkpoint m in
  (* post-checkpoint SMC: patch, synchronize, execute the new code — the
     decode cache and superblock tier now hold the patched instruction *)
  Machine.set_gpr m 8 target;
  Machine.set_gpr m 9 (Int64.of_int (Code.encode (Insn.Daddiu (3, 0, 2))));
  run_at patcher;
  Machine.invalidate_icache m;
  Machine.set_gpr m 3 0L;
  run_at target;
  Alcotest.(check int64) "patched insn executed after sync" 2L (Machine.gpr m 3);
  (* rewind: memory holds the original word again, and the cached decode
     of the patched one must not be served *)
  ignore (Machine.restore m ck : int);
  Alcotest.(check int) "restore rewound the patch" original
    (Mem.Phys.read_u32 m.Machine.phys target);
  Machine.set_gpr m 3 0L;
  run_at target;
  Alcotest.(check int64) "original insn executes after restore" 1L (Machine.gpr m 3);
  (* re-pin (two passes), then patch after the restore: the
     translated-region snoop must still retire the superblock, which
     re-forms from the still-warm (stale) decode cache on the next run —
     the plain engine's staleness contract, then freshness after sync *)
  run_at target;
  run_at target;
  let formed = m.Machine.sb_translations in
  Machine.set_gpr m 8 target;
  Machine.set_gpr m 9 (Int64.of_int (Code.encode (Insn.Daddiu (3, 0, 9))));
  run_at patcher;
  Machine.set_gpr m 3 0L;
  run_at target;
  Alcotest.(check bool) "superblock re-translated after post-restore store" true
    (m.Machine.sb_translations > formed);
  Alcotest.(check int64) "stale decode until sync" 1L (Machine.gpr m 3);
  Machine.invalidate_icache m;
  Machine.set_gpr m 3 0L;
  run_at target;
  Alcotest.(check int64) "post-restore patch visible after sync" 9L (Machine.gpr m 3)

let test_tag_controller_traffic () =
  (* Touching lots of distinct lines drives tag-table fills through the tag
     cache; its miss count must stay tiny relative to data misses (the
     paper: the 8 KB tag cache "does not noticeably degrade performance"). *)
  let m = Machine.create () in
  let k = Os.Kernel.attach m in
  let source =
    {|
main:
  li $t0, 0x200000
  li $a0, 0x400000
  li $v0, 3
  syscall
  li $t1, 8192
loop:
  sd $t1, 0($t0)
  daddiu $t0, $t0, 64
  daddiu $t1, $t1, -1
  bgtz $t1, loop
  li $v0, 1
  li $a0, 0
  syscall
|}
  in
  let r, _ = Os.Kernel.run_program k source in
  Alcotest.(check int) "ran" 0 (Outcome.exited r);
  let tag_misses = m.Machine.hier.Mem.Hierarchy.tag_cache.Mem.Cache.misses in
  let data_misses = m.Machine.hier.Mem.Hierarchy.l1d.Mem.Cache.misses in
  Alcotest.(check bool) "tag cache miss rate tiny" true (tag_misses * 10 < data_misses)

(* --- unboxed machine state ------------------------------------------------- *)

(* A bare machine (no kernel model: a break halts) with [insns] written
   at 0x10000 and the PC there. *)
let code_base = 0x10000L

let bare_machine ?(config = Machine.default_config) engine insns =
  let m = Machine.create ~config () in
  Machine.set_engine m engine;
  Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  Machine.set_kernel m (fun _ ctx ->
      match ctx.Machine.exc with
      | Cp0.Breakpoint -> Machine.Halt 0
      | e -> Alcotest.failf "unexpected exception: %s" (Cp0.exc_to_string e));
  List.iteri
    (fun i insn ->
      Mem.Phys.write_u32 m.Machine.phys (Int64.add code_base (Int64.of_int (4 * i))) (Code.encode insn))
    insns;
  Machine.set_pc m code_base;
  m

(* A warm superblock loop of 60 ALU instructions (HI/LO traffic
   included) retires without allocating, with the timing model off and
   on: registers and the PC live unboxed, the loop's branch retires
   inside its block, and the fetch charge takes the PC unboxed.  The
   residue is per block, not per instruction. *)
let test_alu_superblock_allocates_nothing () =
  let alu =
    [
      Insn.Daddu (9, 9, 10); Insn.Addu (11, 9, 12); Insn.Xor (12, 12, 9); Insn.Or (13, 9, 11);
      Insn.And (14, 13, 12); Insn.Dsll (15, 9, 3); Insn.Dsrl (16, 15, 2); Insn.Slt (17, 9, 16);
      Insn.Sltu (18, 16, 9); Insn.Daddiu (10, 10, 7); Insn.Lui (19, 0x1234); Insn.Ori (19, 19, 0x5678);
      Insn.Sll (20, 9, 5); Insn.Sra (21, 20, 2); Insn.Subu (22, 9, 10); Insn.Dsubu (23, 22, 11);
      Insn.Nor (24, 23, 9); Insn.Dmult (9, 10); Insn.Mflo 25; Insn.Mthi 24; Insn.Mfhi 3;
      Insn.Dsrl32 (4, 25, 3); Insn.Sltiu (5, 4, 100); Insn.Xori (6, 5, 0xFF);
    ]
  in
  (* 58 ALU instructions, the counter decrement and the back-edge branch *)
  let body = List.init 58 (fun i -> List.nth alu (i mod List.length alu)) in
  let insns =
    (Insn.Daddiu (8, 0, 1000) :: body) @ [ Insn.Daddiu (8, 8, -1); Insn.Bne (8, 0, -60); Insn.Break ]
  in
  let m = bare_machine Machine.Superblock insns in
  Machine.set_timing m false;
  let run () =
    Machine.set_pc m code_base;
    Alcotest.(check int) "exit" 0 (Outcome.exited (Machine.run_result ~max_insns:1_000_000L m))
  in
  (* Minor words per instruction over a rerun of the warm loop. *)
  let warm_words_per_insn () =
    run ();
    let instret = m.Machine.instret and words = Gc.minor_words () in
    run ();
    let words = Gc.minor_words () -. words and n = m.Machine.instret - instret in
    Alcotest.(check int) "60 per iteration" ((60 * 1000) + 2) n;
    words /. float_of_int n
  in
  let below_half what per_insn =
    Alcotest.(check bool)
      (Printf.sprintf "%.3f minor words per instruction < 0.5%s" per_insn what)
      true (per_insn < 0.5)
  in
  below_half "" (warm_words_per_insn ());
  Alcotest.(check bool) "blocks retired the loop" true
    (m.Machine.sb_retired > m.Machine.instret / 2);
  (* Timed, every fetch is a TLB hit and an L1I hit. *)
  Machine.set_timing m true;
  below_half " with timing" (warm_words_per_insn ())

(* Every register slot holds a full 64-bit value: the extremes survive
   GPR writes, HI/LO through the multiply/move instructions, a context
   switch and a checkpoint, and $0 ignores writes. *)
let test_regs_64bit_exact () =
  let values = [ 0x8000_0000_0000_0000L; -1L; Int64.max_int ] in
  List.iter
    (fun engine ->
      List.iter
        (fun v ->
          let m =
            bare_machine engine
              [
                Insn.Dmult (8, 9); Insn.Mflo 10; Insn.Mthi 8; Insn.Mfhi 11; Insn.Mtlo 8;
                Insn.Mflo 12; Insn.Daddu (13, 8, 0); Insn.Daddu (0, 8, 8); Insn.Break;
              ]
          in
          Machine.set_gpr m 8 v;
          Machine.set_gpr m 9 1L;
          Machine.set_gpr m 0 v;
          Alcotest.(check int) "exit" 0 (Outcome.exited (Machine.run_result ~max_insns:100L m));
          List.iter
            (fun (what, r) -> Alcotest.(check int64) what v (Machine.gpr m r))
            [ ("dmult/mflo", 10); ("mthi/mfhi", 11); ("mtlo/mflo", 12); ("daddu", 13) ];
          Alcotest.(check int64) "hi" v (Regs.hi m.Machine.regs);
          Alcotest.(check int64) "lo" v (Regs.lo m.Machine.regs);
          Alcotest.(check int64) "$0 stays 0" 0L (Machine.gpr m 0))
        values)
    [ Machine.Plain; Machine.Superblock ];
  let fill m v =
    for i = 1 to 31 do
      Machine.set_gpr m i (Int64.logxor v (Int64.of_int i))
    done;
    Regs.set_hi m.Machine.regs v;
    Regs.set_lo m.Machine.regs (Int64.lognot v);
    Machine.set_pc m v
  in
  let check what m v =
    for i = 1 to 31 do
      Alcotest.(check int64) (Printf.sprintf "%s r%d" what i)
        (Int64.logxor v (Int64.of_int i)) (Machine.gpr m i)
    done;
    Alcotest.(check int64) (what ^ " hi") v (Regs.hi m.Machine.regs);
    Alcotest.(check int64) (what ^ " lo") (Int64.lognot v) (Regs.lo m.Machine.regs);
    Alcotest.(check int64) (what ^ " pc") v (Machine.pc m)
  in
  let m = Machine.create ~config:{ Machine.default_config with Machine.mem_size = 1 lsl 20 } () in
  List.iter
    (fun v ->
      fill m v;
      let ctx = Os.Context.save m in
      let ck = Machine.checkpoint m in
      fill m 0L;
      Os.Context.restore m ctx;
      check "context" m v;
      fill m 0L;
      ignore (Machine.restore m ck : int);
      check "checkpoint" m v)
    values

(* A PC above 2^62 keeps all 64 bits: the native-int decode-cache tag
   cannot hold it, so every fetch there bypasses the decode cache (and
   the superblock tier), and the physical word read wraps to 0x1000. *)
let test_high_pc () =
  let high = 0x8000_0000_0000_1000L in
  let run engine =
    let m = bare_machine engine [ Insn.Jr 8 ] in
    Machine.set_gpr m 8 high;
    List.iteri
      (fun i insn ->
        Mem.Phys.write_u32 m.Machine.phys (Int64.of_int (0x1000 + (4 * i))) (Code.encode insn))
      (List.init 100 (fun _ -> Insn.Daddiu (9, 9, 1)));
    match Machine.run_result ~max_insns:101L m with
    | Machine.Budget_exhausted s -> (s.Machine.snap_pc, Machine.gpr m 9, m.Machine.cycles)
    | r -> Alcotest.failf "expected an exhausted budget: %a" Machine.pp_run_result r
  in
  let plain = run Machine.Plain in
  Alcotest.(check (triple int64 int64 int)) "engines agree" plain (run Machine.Superblock);
  let pc, r9, _ = plain in
  Alcotest.(check int64) "budget ends at the high PC" 0x8000_0000_0000_1190L pc;
  Alcotest.(check int64) "100 instructions ran there" 100L r9

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let suites =
  [
    qsuite "isa-encoding" [ prop_code_roundtrip; prop_decode_total ];
    ( "machine-mips",
      [
        Alcotest.test_case "register file is 64-bit exact" `Quick test_regs_64bit_exact;
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "memory" `Quick test_memory;
        Alcotest.test_case "sub-word memory" `Quick test_subword_memory;
        Alcotest.test_case "branches and loops" `Quick test_branches_loops;
        Alcotest.test_case "function calls" `Quick test_function_call;
        Alcotest.test_case "console syscalls" `Quick test_console;
        Alcotest.test_case "sbrk" `Quick test_sbrk;
      ] );
    ( "machine-cheri",
      [
        Alcotest.test_case "derive and access" `Quick test_cap_derive_and_access;
        Alcotest.test_case "bounds trap" `Quick test_cap_bounds_trap;
        Alcotest.test_case "permission trap" `Quick test_cap_perm_trap;
        Alcotest.test_case "tag cleared by data store" `Quick test_tag_clear_on_data_store;
        Alcotest.test_case "capability-oblivious memcpy" `Quick test_memcpy_preserves_caps;
        Alcotest.test_case "tag branches" `Quick test_cap_branches;
        Alcotest.test_case "ctoptr/cfromptr" `Quick test_ctoptr_roundtrip;
        Alcotest.test_case "cjalr/cjr" `Quick test_cjalr;
        Alcotest.test_case "ccall/creturn" `Quick test_ccall_creturn;
        Alcotest.test_case "sealed capability unusable" `Quick test_sealed_cap_unusable;
      ] );
    ( "sandbox",
      [
        Alcotest.test_case "confines legacy code" `Quick test_sandbox_confines_legacy_code;
        Alcotest.test_case "C0 relocation" `Quick test_sandbox_relocation;
      ] );
    ( "kernel",
      [ Alcotest.test_case "context save/restore" `Quick test_context_roundtrip ] );
    ( "perf-model",
      [
        Alcotest.test_case "cache LRU/writeback" `Quick test_cache_model;
        Alcotest.test_case "TLB reach" `Quick test_tlb_model;
        Alcotest.test_case "cycle accounting" `Quick test_timing_counts;
        Alcotest.test_case "SMC decode coherence" `Quick test_smc_decode_coherence;
        Alcotest.test_case "SMC superblock coherence" `Quick test_smc_superblock_coherence;
        Alcotest.test_case "engine trap differential" `Quick test_engine_trap_differential;
        Alcotest.test_case "step hook rewrites PCC" `Quick test_step_hook_pcc_rewrite;
        Alcotest.test_case "unmapped code page" `Quick test_unmapped_code_page;
        Alcotest.test_case "tag controller traffic" `Quick test_tag_controller_traffic;
        Alcotest.test_case "checkpoint/restore round-trip" `Quick test_checkpoint_restore_roundtrip;
        Alcotest.test_case "checkpoint SMC coherence" `Quick test_checkpoint_smc_coherence;
        Alcotest.test_case "ALU superblock allocates nothing" `Quick
          test_alu_superblock_allocates_nothing;
        Alcotest.test_case "high PC keeps 64 bits" `Quick test_high_pc;
        Alcotest.test_case "invalidate resets every fill" `Quick test_invalidate_every_fill;
      ] );
  ]

(* --- whole-machine monotonicity ------------------------------------------- *)

(* The paper's core security argument (Section 4.2): "a protection domain
   is defined by the transitive closure of memory capabilities reachable
   from its capability register set."  We state it as an executable
   property: starting from a register file holding only capabilities
   derived from two roots (a data root and the code root PCC), NO sequence
   of capability instructions can produce a reachable capability that
   exceeds those roots — whether in a register or in tagged memory. *)

let data_root =
  Cap.Capability.make ~perms:Cap.Perms.all ~base:0x200000L ~length:0x10000L

let within_roots code_root c =
  (not (Cap.Capability.tag c))
  || Cap.Capability.rights_subset c data_root
  || Cap.Capability.rights_subset c code_root

let gen_cap_insn =
  let open QCheck.Gen in
  let creg = int_range 1 31 in
  let gpr = int_range 1 15 in
  oneof
    [
      map3 (fun a b c -> Insn.CIncBase (a, b, c)) creg creg gpr;
      map3 (fun a b c -> Insn.CSetLen (a, b, c)) creg creg gpr;
      map3 (fun a b c -> Insn.CAndPerm (a, b, c)) creg creg gpr;
      map2 (fun a b -> Insn.CMove (a, b)) creg creg;
      map2 (fun a b -> Insn.CClearTag (a, b)) creg creg;
      map3 (fun a b c -> Insn.CFromPtr (a, b, c)) creg creg gpr;
      map3 (fun a b c -> Insn.CToPtr (a, b, c)) gpr creg creg;
      map2 (fun a b -> Insn.CGetBase (a, b)) gpr creg;
      map2 (fun a b -> Insn.CGetLen (a, b)) gpr creg;
      map2 (fun a b -> Insn.CGetPerm (a, b)) gpr creg;
      map2 (fun a b -> Insn.CGetPCC (a, b)) gpr creg;
      map3 (fun a b c -> Insn.CSeal (a, b, c)) creg creg creg;
      map3 (fun a b c -> Insn.CUnseal (a, b, c)) creg creg creg;
      (* capability stores/loads within the data region *)
      (let* cs = creg and* cb = creg and* slot = int_bound 63 in
       return (Insn.CSC (cs, cb, 0, 32 * slot)));
      (let* cd = creg and* cb = creg and* slot = int_bound 63 in
       return (Insn.CLC (cd, cb, 0, 32 * slot)));
      (* scalar stores that should strip tags, never forge *)
      (let* rs = gpr and* cb = creg and* imm = int_bound 100 in
       return (Insn.CStore (Insn.D, rs, cb, 0, imm)));
      (* GPR noise *)
      map3 (fun a b c -> Insn.Daddiu (a, b, c)) gpr gpr (int_bound 4096);
      map3 (fun a b c -> Insn.Xor (a, b, c)) gpr gpr gpr;
    ]

let prop_machine_monotonic =
  QCheck.Test.make ~count:60 ~name:"no instruction sequence escapes the protection domain"
    (QCheck.make
       ~print:(fun insns -> String.concat "\n" (List.map Insn.to_string insns))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 10 60) gen_cap_insn))
    (fun insns ->
      let m = Machine.create () in
      Machine.set_timing m false;
      (* kernel: on any fault, skip the faulting instruction *)
      Machine.set_kernel m (fun m ctx ->
          match ctx.Machine.exc with
          | Cp0.Syscall | Cp0.Breakpoint -> Machine.Halt 0
          | _ -> Machine.Resume_at (Int64.add m.Machine.cp0.Cp0.epc 4L));
      Machine.map_identity m ~vaddr:0L ~len:(4 * 1024 * 1024) Mem.Tlb.prot_rwx;
      (* program image *)
      let text_base = 0x10000L in
      List.iteri
        (fun i insn ->
          Mem.Phys.write_u32 m.Machine.phys
            (Int64.add text_base (Int64.of_int (4 * i)))
            (Code.encode insn))
        insns;
      Mem.Phys.write_u32 m.Machine.phys
        (Int64.add text_base (Int64.of_int (4 * List.length insns)))
        (Code.encode Insn.Break);
      let code_root =
        Cap.Capability.make
          ~perms:(Cap.Perms.union Cap.Perms.execute Cap.Perms.global)
          ~base:text_base ~length:0x1000L
      in
      (* initial domain: data root in every capability register *)
      for i = 0 to 31 do
        Machine.set_cap m i data_root
      done;
      m.Machine.pcc <- code_root;
      Machine.set_pc m text_base;
      (* seed GPRs with small values so derivations do something *)
      for i = 1 to 15 do
        Machine.set_gpr m i (Int64.of_int (i * 24))
      done;
      ignore (Machine.run_result ~max_insns:(Int64.of_int (4 * List.length insns + 16)) m);
      (* closure check: registers *)
      let ok_regs =
        List.for_all
          (fun i -> within_roots code_root (Machine.cap m i))
          (List.init 32 Fun.id)
      in
      (* closure check: every tagged line in memory *)
      let ok_mem = ref true in
      let line = ref 0L in
      while Int64.to_int !line < 4 * 1024 * 1024 do
        if Mem.Tags.get m.Machine.tags !line then begin
          let c =
            Cap.Capability.of_bytes ~tag:true (Mem.Phys.read_bytes m.Machine.phys !line 32)
          in
          if not (within_roots code_root c) then ok_mem := false
        end;
        line := Int64.add !line 32L
      done;
      ok_regs && !ok_mem)

let suites =
  suites
  @ [ qsuite "machine-security" [ prop_machine_monotonic ] ]
