(* Systematic per-instruction semantics tests: each case runs a tiny
   program on the machine and compares a register against an
   independently computed value.  This is the ISA model's conformance
   table — one row per instruction behaviour worth pinning (sign
   extension, unsigned comparison, 32- vs 64-bit widths, shift amounts,
   HI/LO, overflow traps). *)

open Beri

(* Run [body] with $t0 = a, $t1 = b; return the final $v1. *)
let run_insn ?(a = 0L) ?(b = 0L) body =
  let m = Machine.create () in
  let _k = Os.Kernel.attach m in
  let source =
    Printf.sprintf
      "main:\n  ld $t0, 0($zero)\n  ld $t1, 8($zero)\n%s\n  move $a0, $zero\n  li $v0, 1\n  syscall\n"
      body
  in
  let program = Asm.Assembler.assemble source in
  Asm.Assembler.load m program;
  Machine.map_identity m ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  Mem.Phys.write_u64 m.Machine.phys 0L a;
  Mem.Phys.write_u64 m.Machine.phys 8L b;
  Machine.set_pc m program.Asm.Assembler.entry;
  match Machine.run_result ~max_insns:1_000L m with
  | Machine.Exited 0 -> Machine.gpr m Regs.v1
  | r -> Alcotest.failf "%a" Machine.pp_run_result r

let check ?(a = 0L) ?(b = 0L) name body expected =
  Alcotest.(check int64) name expected (run_insn ~a ~b body)

(* --- 64-bit arithmetic --------------------------------------------------- *)

let test_arith64 () =
  check "daddu wraps" ~a:Int64.max_int ~b:1L "  daddu $v1, $t0, $t1" Int64.min_int;
  check "dsubu" ~a:10L ~b:3L "  dsubu $v1, $t0, $t1" 7L;
  check "dsubu wraps" ~a:0L ~b:1L "  dsubu $v1, $t0, $t1" (-1L);
  check "daddiu negative" ~a:100L "  daddiu $v1, $t0, -1" 99L;
  check "and" ~a:0xFF0FL ~b:0x0FF0L "  and $v1, $t0, $t1" 0x0F00L;
  check "or" ~a:0xF000L ~b:0x000FL "  or $v1, $t0, $t1" 0xF00FL;
  check "xor" ~a:0xFFFFL ~b:0x0F0FL "  xor $v1, $t0, $t1" 0xF0F0L;
  check "nor" ~a:0L ~b:0L "  nor $v1, $t0, $t1" (-1L)

(* --- 32-bit arithmetic sign extension ------------------------------------- *)

let test_arith32 () =
  (* addu: 32-bit add, result sign-extended *)
  check "addu sign-extends" ~a:0x7FFF_FFFFL ~b:1L "  addu $v1, $t0, $t1"
    0xFFFF_FFFF_8000_0000L;
  check "subu 32-bit" ~a:0L ~b:1L "  subu $v1, $t0, $t1" (-1L);
  check "addiu sign-extends" ~a:0x7FFF_FFFFL "  addiu $v1, $t0, 1" 0xFFFF_FFFF_8000_0000L

(* --- comparisons ------------------------------------------------------------ *)

let test_comparisons () =
  check "slt signed" ~a:(-1L) ~b:1L "  slt $v1, $t0, $t1" 1L;
  check "sltu unsigned" ~a:(-1L) ~b:1L "  sltu $v1, $t0, $t1" 0L;
  check "slti" ~a:(-5L) "  slti $v1, $t0, 0" 1L;
  check "sltiu small" ~a:3L "  sltiu $v1, $t0, 10" 1L;
  check "sltiu sign-extended imm" ~a:(-2L) "  sltiu $v1, $t0, -1" 1L

(* --- shifts ------------------------------------------------------------------- *)

let test_shifts () =
  check "sll 32-bit + extend" ~a:1L "  sll $v1, $t0, 31" 0xFFFF_FFFF_8000_0000L;
  check "srl zero-fills 32" ~a:0xFFFF_FFFF_8000_0000L "  srl $v1, $t0, 31" 1L;
  check "sra sign-fills" ~a:0xFFFF_FFFF_8000_0000L "  sra $v1, $t0, 31" (-1L);
  check "dsll" ~a:1L "  dsll $v1, $t0, 20" 0x10_0000L;
  check "dsrl logical" ~a:(-1L) "  dsrl $v1, $t0, 8" 0x00FF_FFFF_FFFF_FFFFL;
  check "dsrl32 high bits" ~a:(-1L) "  dsrl32 $v1, $t0, 28" 0xFL;
  check "dsra arithmetic" ~a:(-16L) "  dsra $v1, $t0, 2" (-4L);
  check "dsll32" ~a:1L "  dsll32 $v1, $t0, 8" 0x100_0000_0000L;
  check "dsrl32" ~a:0x100_0000_0000L "  dsrl32 $v1, $t0, 8" 1L;
  check "dsllv uses low 6 bits" ~a:1L ~b:66L "  dsllv $v1, $t0, $t1" 4L;
  check "sllv uses low 5 bits" ~a:1L ~b:33L "  sllv $v1, $t0, $t1" 2L

(* --- multiply / divide ----------------------------------------------------------- *)

let test_muldiv () =
  check "mult lo" ~a:7L ~b:6L "  mult $t0, $t1\n  mflo $v1" 42L;
  check "mult hi" ~a:0x7FFF_FFFFL ~b:0x7FFF_FFFFL "  mult $t0, $t1\n  mfhi $v1" 0x3FFF_FFFFL;
  check "mult negative" ~a:(-3L) ~b:4L "  mult $t0, $t1\n  mflo $v1" (-12L);
  check "dmult lo" ~a:0x1_0000_0000L ~b:16L "  dmult $t0, $t1\n  mflo $v1" 0x10_0000_0000L;
  check "div quotient" ~a:100L ~b:7L "  div $t0, $t1\n  mflo $v1" 14L;
  check "div remainder" ~a:100L ~b:7L "  div $t0, $t1\n  mfhi $v1" 2L;
  check "div negative" ~a:(-100L) ~b:7L "  div $t0, $t1\n  mflo $v1" (-14L);
  check "divu treats operands unsigned" ~a:0xFFFF_FFFFL ~b:2L
    "  divu $t0, $t1\n  mflo $v1" 0x7FFF_FFFFL;
  check "ddivu" ~a:(-2L) ~b:2L "  ddivu $t0, $t1\n  mflo $v1" 0x7FFF_FFFF_FFFF_FFFFL;
  check "div by zero yields zero (no trap)" ~a:5L ~b:0L "  div $t0, $t1\n  mflo $v1" 0L;
  check "mthi/mfhi roundtrip" ~a:77L "  mthi $t0\n  mfhi $v1" 77L;
  check "mtlo/mflo roundtrip" ~a:88L "  mtlo $t0\n  mflo $v1" 88L

(* --- lui / immediates -------------------------------------------------------------- *)

let test_immediates () =
  check "lui sign-extends" "  lui $v1, 0x8000" 0xFFFF_FFFF_8000_0000L;
  check "ori zero-extends" ~a:0L "  ori $v1, $t0, 0xFFFF" 0xFFFFL;
  check "andi zero-extends" ~a:(-1L) "  andi $v1, $t0, 0xFF" 0xFFL;
  check "xori" ~a:0xFFL "  xori $v1, $t0, 0x0F" 0xF0L

(* --- branches ------------------------------------------------------------------------ *)

let branch_check name body ~a ~b expected =
  check name ~a ~b
    (Printf.sprintf
       "  li $v1, 0\n%s taken\n  b done\ntaken:\n  li $v1, 1\ndone:" body)
    expected

let test_branches () =
  branch_check "beq taken" "  beq $t0, $t1," ~a:5L ~b:5L 1L;
  branch_check "beq not taken" "  beq $t0, $t1," ~a:5L ~b:6L 0L;
  branch_check "bne" "  bne $t0, $t1," ~a:5L ~b:6L 1L;
  branch_check "blez zero" "  blez $t0," ~a:0L ~b:0L 1L;
  branch_check "blez negative" "  blez $t0," ~a:(-1L) ~b:0L 1L;
  branch_check "blez positive" "  blez $t0," ~a:1L ~b:0L 0L;
  branch_check "bgtz" "  bgtz $t0," ~a:1L ~b:0L 1L;
  branch_check "bltz" "  bltz $t0," ~a:(-1L) ~b:0L 1L;
  branch_check "bgez zero" "  bgez $t0," ~a:0L ~b:0L 1L

(* --- overflow trap ---------------------------------------------------------------------- *)

let test_overflow_traps () =
  let m = Machine.create () in
  let k = Os.Kernel.attach m in
  let trapped = ref false in
  Os.Kernel.set_fault_handler k (fun _ f ->
      if f.Os.Kernel.exc = Cp0.Overflow then trapped := true;
      Machine.Halt 12);
  let r, _ =
    Os.Kernel.run_program k
      "main:\n  lui $t0, 0x7FFF\n  ori $t0, $t0, 0xFFFF\n  li $t1, 1\n  add $v1, $t0, $t1\n  li $v0, 1\n  li $a0, 0\n  syscall\n"
  in
  Alcotest.(check int) "trapped exit" 12 (Outcome.exited r);
  Alcotest.(check bool) "overflow exception" true !trapped;
  (* addu must NOT trap on the same operands *)
  let m2 = Machine.create () in
  let k2 = Os.Kernel.attach m2 in
  let r2, _ =
    Os.Kernel.run_program k2
      "main:\n  lui $t0, 0x7FFF\n  ori $t0, $t0, 0xFFFF\n  li $t1, 1\n  addu $v1, $t0, $t1\n  li $v0, 1\n  li $a0, 0\n  syscall\n"
  in
  Alcotest.(check int) "addu no trap" 0 (Outcome.exited r2)

(* --- loads/stores widths ------------------------------------------------------------------ *)

let test_memory_widths () =
  check "sb/lb sign" ~a:0x1FFL
    "  la $t2, scratch\n  sb $t0, 0($t2)\n  lb $v1, 0($t2)\n  b end_\n  .data\nscratch: .space 16\n  .text\nend_:"
    (-1L);
  check "sb/lbu zero" ~a:0x1FFL
    "  la $t2, scratch2\n  sb $t0, 0($t2)\n  lbu $v1, 0($t2)\n  b end2_\n  .data\nscratch2: .space 16\n  .text\nend2_:"
    0xFFL;
  check "sw/lw sign" ~a:0xFFFF_FFFFL
    "  la $t2, scratch3\n  sw $t0, 0($t2)\n  lw $v1, 0($t2)\n  b end3_\n  .data\nscratch3: .space 16\n  .text\nend3_:"
    (-1L);
  check "sw/lwu zero" ~a:0xFFFF_FFFFL
    "  la $t2, scratch4\n  sw $t0, 0($t2)\n  lwu $v1, 0($t2)\n  b end4_\n  .data\nscratch4: .space 16\n  .text\nend4_:"
    0xFFFF_FFFFL

let test_llsc () =
  (* LLD/SCD succeed when undisturbed, fail after an intervening store. *)
  check "ll/sc success"
    "  la $t2, cell1\n  lld $t3, 0($t2)\n  li $t3, 9\n  scd $t3, 0($t2)\n  move $v1, $t3\n  b e1_\n  .data\ncell1: .dword 0\n  .text\ne1_:"
    1L;
  check "ll/sc fails after store"
    "  la $t2, cell2\n  lld $t3, 0($t2)\n  sd $zero, 0($t2)\n  li $t3, 9\n  scd $t3, 0($t2)\n  move $v1, $t3\n  b e2_\n  .data\ncell2: .dword 0\n  .text\ne2_:"
    0L

(* --- jumps ----------------------------------------------------------------------------------- *)

let test_jumps () =
  check "jal links ra"
    "  jal target\nback:\n  b done_\ntarget:\n  move $v1, $ra\n  jr $ra\ndone_:\n  la $t3, back\n  xor $v1, $v1, $t3\n  sltiu $v1, $v1, 1"
    1L;
  check "jalr custom link"
    "  la $t2, tgt\n  jalr $t3, $t2\nafter:\n  b dn_\ntgt:\n  la $t4, after\n  xor $v1, $t3, $t4\n  sltiu $v1, $v1, 1\n  jr $t3\ndn_:"
    1L

let suites =
  [
    ( "isa-semantics",
      [
        Alcotest.test_case "64-bit arithmetic" `Quick test_arith64;
        Alcotest.test_case "32-bit sign extension" `Quick test_arith32;
        Alcotest.test_case "comparisons" `Quick test_comparisons;
        Alcotest.test_case "shifts" `Quick test_shifts;
        Alcotest.test_case "multiply/divide" `Quick test_muldiv;
        Alcotest.test_case "immediates" `Quick test_immediates;
        Alcotest.test_case "branches" `Quick test_branches;
        Alcotest.test_case "overflow traps" `Quick test_overflow_traps;
        Alcotest.test_case "memory widths" `Quick test_memory_widths;
        Alcotest.test_case "load-linked/store-conditional" `Quick test_llsc;
        Alcotest.test_case "jumps and links" `Quick test_jumps;
      ] );
  ]
