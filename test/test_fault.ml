(* Tests for the fault-injection subsystem: PRNG and campaign determinism,
   the invariant monitor's oracles, and the satellite claim of the
   robustness experiment — the same single-bit upset in a spilled pointer
   raises a precise capability exception under CHERI but silently corrupts
   data on the unprotected baseline. *)

let heap = Os.Layout.heap_base

(* --- PRNG ----------------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Fault.Prng.create 42L and b = Fault.Prng.create 42L in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Fault.Prng.next a) (Fault.Prng.next b)
  done;
  let c = Fault.Prng.create 43L in
  Alcotest.(check bool)
    "different seeds diverge" false
    (List.init 8 (fun _ -> Fault.Prng.next a) = List.init 8 (fun _ -> Fault.Prng.next c))

let test_prng_bounds () =
  let p = Fault.Prng.create 7L in
  for _ = 0 to 999 do
    let v = Fault.Prng.int p 31 in
    if v < 0 || v >= 31 then Alcotest.failf "Prng.int out of bounds: %d" v
  done

(* --- campaign determinism -------------------------------------------------- *)

let small_config mode =
  {
    Fault.Campaign.bench = "treeadd";
    mode;
    seeds = 20;
    base_seed = 1L;
    param = 4;
    sites = Fault.Injector.all_sites;
    monitor = true;
  }

let test_campaign_determinism () =
  let run () =
    let s = Fault.Campaign.run (small_config Fault.Campaign.Cheri) in
    List.map
      (fun (r : Fault.Campaign.record) ->
        (r.Fault.Campaign.seed, r.Fault.Campaign.outcome, r.Fault.Campaign.injection))
      s.Fault.Campaign.records
  in
  let first = run () and second = run () in
  Alcotest.(check bool) "same seeds give identical outcomes" true (first = second)

(* The headline property of the campaign (and of the paper's Sections 3-4):
   the capability machine detects strictly more injected faults than the
   unprotected baseline, and capability exceptions exist only there.  The
   seed set is fixed, so this is a deterministic check, not a statistical
   one. *)
let test_campaign_cheri_exceeds_baseline () =
  (* param 7 gives the fault sites a real working set (127 tree nodes) —
     at toy sizes the stack window dominates and the modes stop
     differentiating. *)
  let cheri =
    Fault.Campaign.run { (small_config Fault.Campaign.Cheri) with seeds = 100; param = 7 }
  in
  let base =
    Fault.Campaign.run { (small_config Fault.Campaign.Baseline) with seeds = 100; param = 7 }
  in
  Alcotest.(check int)
    "baseline never raises a capability exception" 0
    (Fault.Campaign.count base Fault.Campaign.Detected_cap);
  Alcotest.(check bool)
    (Printf.sprintf "cheri detected %.1f%% > baseline %.1f%%"
       (Fault.Campaign.detected_fraction cheri)
       (Fault.Campaign.detected_fraction base))
    true
    (Fault.Campaign.detected_fraction cheri > Fault.Campaign.detected_fraction base)

(* --- invariant monitor ----------------------------------------------------- *)

let test_monitor_clean_on_golden_state () =
  (* A fault-free run must sweep clean: the monitor's oracles hold on every
     legitimately derived state, so any flag it ever raises is caused by an
     injection. *)
  let m = Machine.create () in
  Machine.set_timing m false;
  let k = Os.Kernel.attach m in
  let src = List.assoc "treeadd" Olden.Minic_src.all in
  let asm =
    Minic.Driver.compile ~mode:Minic.Layout.Cheri
      (Olden.Minic_src.instantiate ~iters:1 src ~param:4)
  in
  let r, _ = Os.Kernel.run_program ~max_insns:10_000_000L k asm in
  Alcotest.(check int) "golden exit" 0 (Outcome.exited r);
  let root = Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:k.Os.Kernel.user_top in
  let violations =
    Fault.Monitor.check ~root m ~base:heap ~len:(Int64.sub k.Os.Kernel.brk heap)
  in
  Alcotest.(check int) "no violations on golden state" 0 (List.length violations)

let test_monitor_flags_forged_tag () =
  let m = Machine.create () in
  (* Plain data on a heap line: the words that decode as base and length
     sum past 2^64, which no derivable capability's bounds can. *)
  Mem.Phys.write_u64 m.Machine.phys heap 0xDEAD_BEEF_DEAD_BEEFL;
  Mem.Phys.write_u64 m.Machine.phys (Int64.add heap 16L) 0xDEAD_BEEF_DEAD_BEEFL;
  Mem.Phys.write_u64 m.Machine.phys (Int64.add heap 24L) 0xFFFF_FFFF_FFFF_FFFFL;
  Alcotest.(check int) "clean before the flip" 0
    (List.length (Fault.Monitor.check_memory m ~base:heap ~len:32L));
  (* ...then a tag-bit upset forges a "capability" over it. *)
  Mem.Tags.set m.Machine.tags heap true;
  let violations = Fault.Monitor.check_memory m ~base:heap ~len:32L in
  Alcotest.(check bool) "forged tag is flagged" true (violations <> []);
  Alcotest.(check bool) "includes the tag-integrity oracle" true
    (List.exists (fun (v : Fault.Monitor.violation) -> v.Fault.Monitor.oracle = "tag-integrity") violations)

let test_monitor_flags_nonmonotonic_register () =
  let m = Machine.create () in
  (* A root covering only the low megabyte... *)
  let root = Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:0x10_0000L in
  (* ...and a register claiming more than the root delegates. *)
  Machine.set_cap m 5 (Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:0x20_0000L);
  let violations = Fault.Monitor.check_regs ~root m in
  Alcotest.(check bool) "monotonicity violation flagged" true
    (List.exists
       (fun (v : Fault.Monitor.violation) ->
         v.Fault.Monitor.oracle = "monotonicity" && v.Fault.Monitor.subject = "register c5")
       violations)

(* --- check_memory window rounding ------------------------------------------ *)

(* Regressions for the sweep-window arithmetic: [base, base+len) must be
   covered in full.  The old code floored both ends, so a partial tail
   line — or a window whose unaligned base pushed its end past the last
   whole line — escaped the sweep entirely. *)

let forge_line m addr =
  (* An invalid capability image (unsealed but otype=1) under a forged
     tag: flags word bit 32 is the otype field's low bit. *)
  Mem.Phys.write_u64 m.Machine.phys addr (Int64.shift_left 1L 32);
  Mem.Tags.set m.Machine.tags addr true

let test_monitor_window_partial_tail () =
  let m = Machine.create () in
  let g = Int64.of_int (Mem.Tags.granularity m.Machine.tags) in
  (* Bad line starts at 2g; the window [0, 2g+8) only reaches 8 bytes into
     it, but those bytes are tagged and must be swept. *)
  forge_line m (Int64.add heap (Int64.mul 2L g));
  let violations =
    Fault.Monitor.check_memory m ~base:heap ~len:(Int64.add (Int64.mul 2L g) 8L)
  in
  Alcotest.(check bool) "partial tail line is swept" true (violations <> [])

let test_monitor_window_unaligned_base () =
  let m = Machine.create () in
  let g = Int64.of_int (Mem.Tags.granularity m.Machine.tags) in
  (* Bad line at heap+g; window starts 8 bytes into the previous line and
     spans g bytes, so it ends 8 bytes into the bad line. *)
  forge_line m (Int64.add heap g);
  let violations = Fault.Monitor.check_memory m ~base:(Int64.add heap 8L) ~len:g in
  Alcotest.(check bool) "unaligned base still reaches the last line" true (violations <> [])

(* --- seeded oracle violations ----------------------------------------------- *)

(* One deliberate violation per oracle, each reported by exactly the
   expected oracle (forged tags over garbage additionally imply
   tag-integrity; that pairing is part of the contract). *)

let oracle_names violations =
  List.sort_uniq compare (List.map (fun (v : Fault.Monitor.violation) -> v.Fault.Monitor.oracle) violations)

let test_oracle_forged_tag_over_data () =
  let m = Machine.create () in
  forge_line m heap;
  let violations = Fault.Monitor.check_memory m ~base:heap ~len:32L in
  Alcotest.(check (list string))
    "well-formed + tag-integrity, nothing else" [ "tag-integrity"; "well-formed" ]
    (oracle_names violations)

let test_oracle_unsealed_with_otype () =
  let m = Machine.create () in
  (* Forge the register value through the serialized form: the public
     constructors cannot build an unsealed capability carrying an otype,
     which is exactly why holding one violates well-formedness. *)
  let b = Bytes.make 32 '\000' in
  Bytes.set_int64_le b 0 (Int64.shift_left 1L 32);
  Bytes.set_int64_le b 24 16L;
  Machine.set_cap m 9 (Cap.Capability.of_bytes ~tag:true b);
  let violations = Fault.Monitor.check_regs m in
  Alcotest.(check (list string)) "well-formed only" [ "well-formed" ] (oracle_names violations);
  Alcotest.(check bool) "names register c9" true
    (List.exists (fun (v : Fault.Monitor.violation) -> v.Fault.Monitor.subject = "register c9") violations)

let test_oracle_unrepresentable_on_w128 () =
  let config = { Machine.default_config with Machine.cap_width = Machine.W128 } in
  let m = Machine.create ~config () in
  (* Fine on the 256-bit machine, but the length exceeds the compressed
     format's 40-bit field. *)
  let c = Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:(Int64.shift_left 1L 45) in
  Alcotest.(check bool) "not representable" false (Cap.Cap128.representable c);
  Machine.set_cap m 9 c;
  let violations = Fault.Monitor.check_regs m in
  Alcotest.(check (list string)) "well-formed only" [ "well-formed" ] (oracle_names violations)

let test_oracle_monotonicity () =
  let m = Machine.create () in
  let root = Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:4096L in
  Machine.set_cap m 9 (Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:8192L);
  let violations = Fault.Monitor.check_regs ~root m in
  Alcotest.(check (list string)) "monotonicity only" [ "monotonicity" ] (oracle_names violations)

(* --- campaign checkpoint/resume --------------------------------------------- *)

let summary_tallies (s : Fault.Campaign.summary) =
  List.map (fun o -> Fault.Campaign.count s o) Fault.Campaign.all_outcomes

let test_campaign_checkpoint_resume () =
  let cfg = small_config Fault.Campaign.Cheri in
  let full = Fault.Campaign.run cfg in
  let path = Filename.temp_file "cheri-fault-ckpt" ".json" in
  (* Interrupt after 8 seeds, then resume to the end. *)
  let _ = Fault.Campaign.run ~checkpoint:path ~checkpoint_every:4 ~stop_after:8 cfg in
  let resumed = Fault.Campaign.run ~checkpoint:path ~resume:true cfg in
  Sys.remove path;
  Alcotest.(check (list int))
    "resumed tallies equal uninterrupted" (summary_tallies full) (summary_tallies resumed)

(* --- seeded bounds corruption: detection vs silent corruption --------------- *)

(* Both programs build a 64-byte object at the heap base, plant 42 at
   offset 48, spill the pointer to heap+128, reload it, and read offset 48
   back.  A step hook models the same single-event upset in the spilled
   pointer in both: one bit of the stored image flips.  Under CHERI the
   flipped bit zeroes the capability's length, so the reload-and-dereference
   raises a precise length-violation exception; on the baseline the flipped
   bit moves the pointer 64 bytes up, so the dereference silently returns
   the decoy value planted there. *)

let run_with_upset ~upset src =
  let m = Machine.create () in
  let k = Os.Kernel.attach m in
  let trapped = ref None in
  Os.Kernel.set_fault_handler k (fun _k f ->
      trapped := Some f.Os.Kernel.capcause;
      Machine.Halt 77);
  let program = Asm.Assembler.assemble src in
  Os.Kernel.exec k program;
  let done_ = ref false in
  Machine.set_step_hook m
    (Some
       (fun m ->
         if (not !done_) && upset m then done_ := true));
  let code = Outcome.exited (Machine.run_result ~max_insns:1_000_000L m) in
  (code, !trapped, !done_)

let spill = Int64.add heap 128L

let cheri_victim =
  {|
main:
  li $a0, 4096
  li $v0, 3
  syscall                   # map the heap page
  move $t0, $v0
  cincbase $c1, $c0, $t0    # c1 = 64-byte object at the heap base
  li $t1, 64
  csetlen $c1, $c1, $t1
  li $t3, 42
  csd $t3, $zero, 48($c1)   # object[48] = 42
  daddiu $t2, $t0, 128
  cincbase $c2, $c0, $t2    # c2 = the spill slot at heap+128
  li $t1, 32
  csetlen $c2, $c2, $t1
  csc $c1, $zero, 0($c2)    # spill the object capability
  clc $c3, $zero, 0($c2)    # reload it (corrupted in memory by then)
  cld $v1, $zero, 48($c3)   # CHERI: length violation right here
  move $a0, $v1
  li $v0, 1
  syscall
|}

let baseline_victim =
  {|
main:
  li $a0, 4096
  li $v0, 3
  syscall
  move $t0, $v0
  li $t3, 42
  sd $t3, 48($t0)           # object[48] = 42
  li $t4, 7
  sd $t4, 112($t0)          # decoy at heap+64+48
  sd $t0, 128($t0)          # spill the pointer
  ld $t5, 128($t0)          # reload it (corrupted in memory by then)
  ld $v1, 48($t5)           # baseline: silently reads the decoy
  move $a0, $v1
  li $v0, 1
  syscall
|}

let test_bounds_corruption_cheri_traps () =
  (* Fire once the capability image lands in the spill slot (its line's tag
     is set), then flip bit 6 of the length word: 64 becomes 0. *)
  let upset m =
    if Mem.Tags.get m.Machine.tags spill then begin
      let len_addr = Int64.add spill 24L in
      Mem.Phys.write_u64 m.Machine.phys len_addr
        (Int64.logxor (Mem.Phys.read_u64 m.Machine.phys len_addr) 64L);
      true
    end
    else false
  in
  let code, trapped, fired = run_with_upset ~upset cheri_victim in
  Alcotest.(check bool) "upset fired" true fired;
  Alcotest.(check int) "killed by the fault handler" 77 code;
  match trapped with
  | Some Cap.Cause.Length_violation -> ()
  | Some c -> Alcotest.failf "wrong capability cause: %s" (Cap.Cause.to_string c)
  | None -> Alcotest.fail "no capability exception raised"

let test_bounds_corruption_baseline_silent () =
  (* The same upset shape on the legacy layout: flip bit 6 of the spilled
     pointer once it is in memory, moving it from heap+0 to heap+64. *)
  let upset m =
    if Mem.Phys.read_u64 m.Machine.phys spill = heap then begin
      Mem.Phys.write_u64 m.Machine.phys spill (Int64.logxor heap 64L);
      true
    end
    else false
  in
  let code, trapped, fired = run_with_upset ~upset baseline_victim in
  Alcotest.(check bool) "upset fired" true fired;
  Alcotest.(check bool) "no trap of any kind" true (trapped = None);
  Alcotest.(check int) "exits normally with corrupt data" 7 code

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
        Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
        Alcotest.test_case "campaign determinism" `Quick test_campaign_determinism;
        Alcotest.test_case "cheri detects more than baseline" `Quick
          test_campaign_cheri_exceeds_baseline;
        Alcotest.test_case "monitor clean on golden state" `Quick test_monitor_clean_on_golden_state;
        Alcotest.test_case "monitor flags forged tag" `Quick test_monitor_flags_forged_tag;
        Alcotest.test_case "monitor flags non-monotonic register" `Quick
          test_monitor_flags_nonmonotonic_register;
        Alcotest.test_case "sweep window covers partial tail line" `Quick
          test_monitor_window_partial_tail;
        Alcotest.test_case "sweep window survives unaligned base" `Quick
          test_monitor_window_unaligned_base;
        Alcotest.test_case "oracle: forged tag over plain data" `Quick
          test_oracle_forged_tag_over_data;
        Alcotest.test_case "oracle: unsealed capability with otype" `Quick
          test_oracle_unsealed_with_otype;
        Alcotest.test_case "oracle: unrepresentable on w128" `Quick
          test_oracle_unrepresentable_on_w128;
        Alcotest.test_case "oracle: monotonicity against the root" `Quick test_oracle_monotonicity;
        Alcotest.test_case "campaign checkpoint/resume equivalence" `Quick
          test_campaign_checkpoint_resume;
        Alcotest.test_case "bounds corruption traps under cheri" `Quick
          test_bounds_corruption_cheri_traps;
        Alcotest.test_case "bounds corruption silent on baseline" `Quick
          test_bounds_corruption_baseline_silent;
      ] );
  ]
