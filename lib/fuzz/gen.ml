(* Random well-formed instruction-sequence generator for the
   observational-correctness fuzzer (ROADMAP item 4).

   Programs are straight-line MIPS+CHERI sequences with forward-only
   branches, biased toward the capability operations the paper's security
   argument rests on: derivation chains (CIncBase/CSetLen/CAndPerm),
   sealing (CSeal/CUnseal/CCall), capability loads and stores that
   straddle bounds, and tag-clearing scalar writes over capability lines.
   Every program is a pure function of its 64-bit seed ([Fault.Prng] is
   splitmix64, stable across OCaml versions), so one seed names one
   program forever — the property replay, shrinking, and checkpointed
   resume all lean on.

   The machine world the programs run in is fixed and rebuilt from the
   seed before each run ([reset]): a 1 MiB flat machine with the code at
   [code_base], a scalar data window at [scalar_base] (seed-filled), and
   a capability storage window at [cap_base] (zeroed, tags clear).

   Register discipline (what keeps the differential mode honest): the
   same program must be *observationally comparable* on the 256-bit and
   the 128-bit machine.  Capability registers split into a clean pool
   {c0..c4, c7, c8} whose field values are width-independent (they only
   ever hold capabilities derived from [Capability.make] roots, which
   round-trip the compressed format exactly), and a dirty pool {c5, c6}
   that CLC may fill with untagged line residue — 32 raw bytes decode
   differently than 16, so dirty fields are only observable through
   their tag (CGetTag) and the comparator treats untagged registers as
   equal.  CGet*/CToPtr and derivations read the clean pool only; CLC
   and CMove land in the dirty pool.  For the same reason all CLC/CSC
   offsets and all tag-clearing stores into the capability window are
   32-byte aligned: the two widths tag at different granularities (32 vs
   16 bytes), and line-aligned traffic is exactly the traffic on which
   their tag observations agree.

   GPR roles: r8-r15 scratch (r8-r11 seeded small, r12-r15 full-random),
   r16/r17 small aligned offsets, r18 a 32-byte line index, r19 a
   near-bounds straddler (region_len minus a few words), r20 the legacy
   base (legacy loads/stores are C0-relative), r21 a W128-unrepresentable
   length (wide mode only).

   Bounds-aware operand selection: generated code never writes r16-r21,
   so the generator learns their values by replaying the reset PRNG's
   register prefix ([world_of_seed]) and tracks a small static model of
   each capability register (guaranteed length, surely-tagged,
   seal state).  Operands for memory ops and derivations are drawn to
   satisfy the model — offsets that fit the bounds, derivation sources
   that are surely tagged and unsealed, unseals only of surely-sealed
   capabilities — except for a deliberate 1-in-8 "stray" fraction per
   risky arm that falls back to unconstrained draws, keeping every trap
   class represented.  Instructions in a forward branch's shadow may or
   may not execute, so while a shadow is open model updates are joined
   pessimistically with the pre-instruction state.  The result is that
   most programs run to their terminator (exercising long superblock
   chains and the comparison logic on real data flow) instead of
   trapping within a few instructions, without giving up trap
   coverage. *)

open Beri

let mem_size = 1 lsl 20
let code_base = 0x1000L
let scalar_base = 0x20000L
let cap_base = 0x30000L
let region_len = 4096L

(* Longer than the 40-bit compressed bounds field: a capability this long
   lives happily in registers on either machine but cannot be stored by
   the 128-bit one ([Cap128.compress] refuses with [Non_exact_bounds]). *)
let wide_len = Int64.shift_left 1L 50

(* Seal authority segment base = the otype programs seal with; kept below
   2^16 so the compressed otype field round-trips it. *)
let seal_otype = 0x40

(* Architectural permission bits only (0..8): the compressed format keeps
   16 perms bits, so these survive a store-reload on either width
   unchanged and a comparison never sees a perms-masking artefact. *)
let fuzz_perms = Cap.Perms.of_int 0x1FF

type cfg = {
  insns : int; (* generated instructions per program (before the Break terminator) *)
  wide : bool; (* arm c8/r21 with W128-unrepresentable bounds (lockstep mode) *)
}

(* The monotonicity root the invariant monitor checks reachable
   capabilities against: it must dominate every capability [reset]
   installs. *)
let monitor_root cfg =
  Cap.Capability.make ~perms:fuzz_perms ~base:0L
    ~length:(if cfg.wide then wide_len else Int64.of_int mem_size)

(* Instruction budget for one program: straight-line code with
   forward-only branches cannot loop, so this is pure slack. *)
let budget cfg = (2 * cfg.insns) + 64

let create_machine ?engine width =
  let config = { Machine.default_config with Machine.mem_size; Machine.cap_width = width } in
  let m = Machine.create ~config () in
  (match engine with Some e -> Machine.set_engine m e | None -> ());
  (* Fuzzing measures observational correctness, not cycles. *)
  Machine.set_timing m false;
  Machine.map_identity m ~vaddr:0L ~len:mem_size Mem.Tlb.prot_rwx;
  (* Any exception ends the program: the exit code names the exception
     class, [cp0.last_exc] carries the precise identity. *)
  Machine.set_kernel m (fun _ ctx -> Machine.Halt (100 + Cp0.exc_code ctx.Machine.exc));
  m

(* Reset's window images.  The scalar buffer is per domain, since
   campaigns reset machines on several domains at once; a fresh 4 KiB
   buffer per reset would be a major-heap allocation. *)
let zero_window = Bytes.make (Int64.to_int region_len) '\000'
let scalar_window = Domain.DLS.new_key (fun () -> Bytes.create (Int64.to_int region_len))

(* Deterministic full reset: the same machine object is reused across
   thousands of programs, so every piece of state a program can observe
   is rewritten from the seed — data windows, tags, the whole register
   file, CP0.  A program's outcome is therefore independent of which
   programs ran before it on the same machine, which is what makes
   sharding, checkpoint/resume, and replay all agree bit-for-bit. *)
let reset m cfg seed =
  let p = Fault.Prng.create (Int64.logxor seed 0xDA7A_5EEDL) in
  (* Register draws come FIRST in the PRNG stream: the generator replays
     exactly this prefix ([world_of_seed]) to learn the offset registers'
     values without paying for the memory image draws. *)
  for i = 1 to 31 do
    Machine.set_gpr m i 0L
  done;
  Regs.set_hi m.Machine.regs 0L;
  Regs.set_lo m.Machine.regs 0L;
  for i = 8 to 11 do
    Machine.set_gpr m i (Fault.Prng.int64 p 4096L)
  done;
  for i = 12 to 15 do
    Machine.set_gpr m i (Fault.Prng.next p)
  done;
  Machine.set_gpr m 16 (Int64.of_int (8 * Fault.Prng.int p 512));
  Machine.set_gpr m 17 (Int64.of_int (8 * Fault.Prng.int p 512));
  Machine.set_gpr m 18 (Int64.of_int (32 * Fault.Prng.int p 128));
  Machine.set_gpr m 19 (Int64.sub region_len (Int64.of_int (8 * Fault.Prng.int p 5)));
  Machine.set_gpr m 20 scalar_base;
  Machine.set_gpr m 21 (Int64.add (Int64.shift_left 1L 41) (Fault.Prng.int64 p (Int64.shift_left 1L 45)));
  let len = Int64.to_int region_len in
  let scalars = Domain.DLS.get scalar_window in
  Fault.Prng.fill_words p scalars;
  Mem.Phys.write_bytes m.Machine.phys scalar_base scalars;
  Mem.Phys.write_bytes m.Machine.phys cap_base zero_window;
  Mem.Tags.clear_range m.Machine.tags scalar_base len;
  Mem.Tags.clear_range m.Machine.tags cap_base len;
  let mk b l = Cap.Capability.make ~perms:fuzz_perms ~base:b ~length:l in
  for i = 0 to 31 do
    Machine.set_cap m i Cap.Capability.null
  done;
  Machine.set_cap m 0 (mk 0L (Int64.of_int mem_size));
  Machine.set_cap m 1 (mk scalar_base region_len);
  Machine.set_cap m 2 (mk cap_base region_len);
  Machine.set_cap m 3 (mk scalar_base region_len);
  Machine.set_cap m 4 (mk cap_base region_len);
  Machine.set_cap m 7 (mk (Int64.of_int seal_otype) 64L);
  Machine.set_cap m 8 (if cfg.wide then mk 0L wide_len else mk 0L (Int64.of_int mem_size));
  m.Machine.pcc <- mk 0L (Int64.of_int mem_size);
  Machine.set_pc m code_base;
  m.Machine.ll_bit <- false;
  let cp0 = m.Machine.cp0 in
  cp0.Cp0.mode <- Cp0.Kernel;
  cp0.Cp0.exl <- false;
  cp0.Cp0.epc <- 0L;
  cp0.Cp0.badvaddr <- 0L;
  cp0.Cp0.last_exc <- None;
  cp0.Cp0.capcause <- Cap.Cause.None_;
  cp0.Cp0.capcause_reg <- 0

(* Breaks past the program end: a not-taken final branch can overshoot
   its own terminator by up to the maximum forward offset. *)
let terminator_pad = 4

let load m (program : Insn.t array) =
  let phys = m.Machine.phys in
  Array.iteri
    (fun i insn ->
      Mem.Phys.write_u32 phys (Int64.add code_base (Int64.of_int (4 * i))) (Code.encode insn))
    program;
  let n = Array.length program in
  let brk = Code.encode Insn.Break in
  for i = n to n + terminator_pad do
    Mem.Phys.write_u32 phys (Int64.add code_base (Int64.of_int (4 * i))) brk
  done;
  Machine.invalidate_icache m

(* --- the generator proper ----------------------------------------------- *)

(* The values [reset] gives the never-overwritten offset registers,
   recovered by replaying the same PRNG prefix.  [w21] is the wide
   length; the rest are small offsets into the 4 KiB windows. *)
type world = { w16 : int; w17 : int; w18 : int; w19 : int; w21 : int64 }

let world_of_seed seed =
  let p = Fault.Prng.create (Int64.logxor seed 0xDA7A_5EEDL) in
  for _ = 8 to 11 do
    ignore (Fault.Prng.int64 p 4096L)
  done;
  for _ = 12 to 15 do
    ignore (Fault.Prng.next p)
  done;
  let w16 = 8 * Fault.Prng.int p 512 in
  let w17 = 8 * Fault.Prng.int p 512 in
  let w18 = 32 * Fault.Prng.int p 128 in
  let w19 = Int64.to_int region_len - (8 * Fault.Prng.int p 5) in
  let w21 = Int64.add (Int64.shift_left 1L 41) (Fault.Prng.int64 p (Int64.shift_left 1L 45)) in
  { w16; w17; w18; w19; w21 }

let scratch = [ 8; 9; 10; 11; 12; 13; 14; 15 ]
let small_offsets = [ 16; 17; 19 ] (* r19 is the bounds straddler *)
let derive_dst = [ 3; 4 ]
let clean_src = [ 0; 1; 2; 3; 4; 7; 8 ]
let dirty_dst = [ 5; 6 ]
let any_cap = [ 1; 2; 3; 4; 5; 6; 7; 8 ]
let widths = [ Insn.B; Insn.H; Insn.W; Insn.D ]

(* Static model of one capability register: what the generator can
   guarantee about it at the current program point.  [avail] is the
   guaranteed length (a lower bound — joins take the min), [tagged]
   means *surely* tagged, [seal] is three-valued because a branch shadow
   can leave it genuinely unknown. *)
type seal_state = Unsealed | Sealed | Unknown_seal

type cmodel = { mutable avail : int; mutable tagged : bool; mutable seal : seal_state }

let copy_model m = { avail = m.avail; tagged = m.tagged; seal = m.seal }

(* Matches the capability file [reset] installs. *)
let initial_model cfg =
  let mk avail = { avail; tagged = true; seal = Unsealed } in
  let dirty () = { avail = 0; tagged = false; seal = Unknown_seal } in
  let len = Int64.to_int region_len in
  [|
    mk mem_size (* c0 *);
    mk len (* c1 *);
    mk len (* c2 *);
    mk len (* c3 *);
    mk len (* c4 *);
    dirty () (* c5 *);
    dirty () (* c6 *);
    mk 64 (* c7: seal authority *);
    mk (if cfg.wide then Int64.to_int wide_len else mem_size) (* c8 *);
  |]

(* Weighted draw over closures.  Every random operand below is bound with
   an explicit [let ... in] before the constructor is applied: OCaml's
   argument evaluation order is unspecified, and the generator's whole
   contract is that one seed names one program. *)
let weighted p table =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 table in
  let n = ref (Fault.Prng.int p total) in
  let rec go = function
    | (w, f) :: rest ->
        if !n < w then f ()
        else begin
          n := !n - w;
          go rest
        end
    | [] -> assert false
  in
  go table

let generate cfg seed : Insn.t array =
  let p = Fault.Prng.create (Int64.logxor seed 0xC0DE_F22DL) in
  let world = world_of_seed seed in
  let model = initial_model cfg in
  let shadow = ref 0 in
  let r () = Fault.Prng.choose p scratch in
  let small () = Fault.Prng.choose p small_offsets in
  let dst () = Fault.Prng.choose p derive_dst in
  let src () = Fault.Prng.choose p clean_src in
  let width () = Fault.Prng.choose p widths in
  (* CLC/CSC index: $zero or the 32-aligned line register. *)
  let line_index () = if Fault.Prng.bool p then 0 else 18 in
  let line_imm () = 32 * Fault.Prng.int p 4 in
  (* CLoad/CStore immediates are signed 8-bit in the encoding; keep them
     small, aligned, and positive — reach comes from the index register. *)
  let imm_for w =
    let size = Insn.width_bytes w in
    size * Fault.Prng.int p (128 / size)
  in
  let legacy_off w =
    let size = Insn.width_bytes w in
    size * Fault.Prng.int p (Int64.to_int region_len / size)
  in
  (* The known value of an offset register ($zero included). *)
  let rval = function
    | 0 -> 0
    | 16 -> world.w16
    | 17 -> world.w17
    | 18 -> world.w18
    | 19 -> world.w19
    | _ -> assert false
  in
  (* The deliberate stray fraction: 1 in 8 risky operands ignores the
     model so every trap class stays represented. *)
  let stray () = Fault.Prng.int p 8 = 0 in
  let usable c = model.(c).tagged && model.(c).seal = Unsealed in
  (* Never empty: c0/c1/c2 are never written, so they always qualify. *)
  let usable_srcs () = List.filter usable clean_src in
  (* An in-bounds immediate for a [size]-byte access at known offset
     [rtv] into a 4 KiB window, quantised to [step] with at most
     [max_slots] choices (the encoding's immediate field). *)
  let fit ~step ~max_slots ~size rtv =
    let room = Int64.to_int region_len - rtv - size in
    let slots = min max_slots ((room / step) + 1) in
    step * Fault.Prng.int p slots
  in
  let set_model c ~avail ~tagged ~seal =
    let m = model.(c) in
    m.avail <- avail;
    m.tagged <- tagged;
    m.seal <- seal
  in
  (* After a stray (or otherwise unpredictable) write: assume nothing. *)
  let taint c = set_model c ~avail:0 ~tagged:false ~seal:Unknown_seal in
  let table =
    [
      ( 10,
        fun () ->
          let d = r () in
          let s = r () in
          let t = r () in
          let op =
            Fault.Prng.choose p
              [
                (fun () -> Insn.Daddu (d, s, t));
                (fun () -> Insn.Dsubu (d, s, t));
                (fun () -> Insn.And (d, s, t));
                (fun () -> Insn.Or (d, s, t));
                (fun () -> Insn.Xor (d, s, t));
                (fun () -> Insn.Sltu (d, s, t));
              ]
          in
          op () );
      ( 4,
        fun () ->
          let d = r () in
          let s = r () in
          let i = Fault.Prng.int p 512 - 256 in
          Insn.Daddiu (d, s, i) );
      ( 2,
        fun () ->
          let d = r () in
          let s = r () in
          let sh = Fault.Prng.int p 32 in
          if Fault.Prng.bool p then Insn.Dsll (d, s, sh) else Insn.Dsrl (d, s, sh) );
      ( 5,
        fun () ->
          let w = width () in
          (* no unsigned form of the 64-bit legacy load exists *)
          let u = Fault.Prng.bool p && w <> Insn.D in
          let rt = r () in
          let off = legacy_off w in
          Insn.Load (w, u, rt, 20, off) );
      ( 4,
        fun () ->
          let w = width () in
          let rt = r () in
          let off = legacy_off w in
          Insn.Store (w, rt, 20, off) );
      ( 8,
        fun () ->
          let w = width () in
          let u = Fault.Prng.bool p in
          let rd = r () in
          if stray () then begin
            let rt = if Fault.Prng.int p 4 = 0 then 0 else small () in
            let i = imm_for w in
            Insn.CLoad (w, u, rd, 1, rt, i)
          end
          else begin
            let rt = Fault.Prng.choose p [ 0; 16; 17 ] in
            let size = Insn.width_bytes w in
            let i = fit ~step:size ~max_slots:(128 / size) ~size (rval rt) in
            Insn.CLoad (w, u, rd, 1, rt, i)
          end );
      ( 6,
        fun () ->
          let w = width () in
          let rs = r () in
          if stray () then begin
            let rt = if Fault.Prng.int p 4 = 0 then 0 else small () in
            let i = imm_for w in
            Insn.CStore (w, rs, 1, rt, i)
          end
          else begin
            let rt = Fault.Prng.choose p [ 0; 16; 17 ] in
            let size = Insn.width_bytes w in
            let i = fit ~step:size ~max_slots:(128 / size) ~size (rval rt) in
            Insn.CStore (w, rs, 1, rt, i)
          end );
      (* Tag-clearing arithmetic: a scalar write over a capability line. *)
      ( 4,
        fun () ->
          let rs = r () in
          let rt = line_index () in
          let i = if stray () then line_imm () else fit ~step:32 ~max_slots:4 ~size:8 (rval rt) in
          Insn.CStore (Insn.D, rs, 2, rt, i) );
      ( 5,
        fun () ->
          let cd = Fault.Prng.choose p dirty_dst in
          let rt = line_index () in
          let i =
            if stray () then line_imm () else fit ~step:32 ~max_slots:4 ~size:32 (rval rt)
          in
          (* whatever the line holds: only the tag is comparable *)
          taint cd;
          Insn.CLC (cd, 2, rt, i) );
      ( 7,
        fun () ->
          let cs = Fault.Prng.choose p any_cap in
          let rt = line_index () in
          let i =
            if stray () then line_imm () else fit ~step:32 ~max_slots:4 ~size:32 (rval rt)
          in
          Insn.CSC (cs, 2, rt, i) );
      ( 6,
        fun () ->
          let cd = dst () in
          if stray () then begin
            let cb = src () in
            let rt = small () in
            taint cd;
            Insn.CIncBase (cd, cb, rt)
          end
          else begin
            let cb = Fault.Prng.choose p (usable_srcs ()) in
            let avail = model.(cb).avail in
            let rts = 0 :: List.filter (fun x -> rval x <= avail) [ 16; 17; 19 ] in
            let rt = Fault.Prng.choose p rts in
            set_model cd ~avail:(avail - rval rt) ~tagged:true ~seal:Unsealed;
            Insn.CIncBase (cd, cb, rt)
          end );
      ( 5,
        fun () ->
          let cd = dst () in
          if stray () then begin
            let cb = src () in
            let rt = small () in
            taint cd;
            Insn.CSetLen (cd, cb, rt)
          end
          else begin
            let cb = Fault.Prng.choose p (usable_srcs ()) in
            let avail = model.(cb).avail in
            let rts = 0 :: List.filter (fun x -> rval x <= avail) [ 16; 17; 19 ] in
            let rt = Fault.Prng.choose p rts in
            set_model cd ~avail:(rval rt) ~tagged:true ~seal:Unsealed;
            Insn.CSetLen (cd, cb, rt)
          end );
      ( 3,
        fun () ->
          let cd = dst () in
          let rt = r () in
          if stray () then begin
            let cb = src () in
            taint cd;
            Insn.CAndPerm (cd, cb, rt)
          end
          else begin
            let cb = Fault.Prng.choose p (usable_srcs ()) in
            set_model cd ~avail:model.(cb).avail ~tagged:true ~seal:Unsealed;
            Insn.CAndPerm (cd, cb, rt)
          end );
      ( 2,
        fun () ->
          let cd = dst () in
          let cb = src () in
          let m = model.(cb) in
          set_model cd ~avail:m.avail ~tagged:false ~seal:m.seal;
          Insn.CClearTag (cd, cb) );
      ( 2,
        fun () ->
          let cd = Fault.Prng.choose p dirty_dst in
          let cb = Fault.Prng.choose p any_cap in
          let m = model.(cb) in
          set_model cd ~avail:m.avail ~tagged:m.tagged ~seal:m.seal;
          Insn.CMove (cd, cb) );
      ( 4,
        fun () ->
          let d = r () in
          let c = src () in
          let op =
            Fault.Prng.choose p
              [
                (fun () -> Insn.CGetBase (d, c));
                (fun () -> Insn.CGetLen (d, c));
                (fun () -> Insn.CGetPerm (d, c));
                (fun () -> Insn.CGetTag (d, c));
              ]
          in
          op () );
      (* Tag visibility is comparable even for the dirty pool. *)
      ( 2,
        fun () ->
          let d = r () in
          let c = Fault.Prng.choose p any_cap in
          Insn.CGetTag (d, c) );
      ( 1,
        fun () ->
          let d = r () in
          let cd = dst () in
          set_model cd ~avail:mem_size ~tagged:true ~seal:Unsealed;
          Insn.CGetPCC (d, cd) );
      ( 2,
        fun () ->
          let d = r () in
          let c = src () in
          Insn.CToPtr (d, c, 0) );
      ( 2,
        fun () ->
          let cd = dst () in
          let cb = Fault.Prng.choose p [ 0; 1; 2 ] in
          let rt = small () in
          let v = rval rt in
          (* from_ptr of 0 is the NULL cast: cd is the untagged null cap *)
          if v = 0 then set_model cd ~avail:0 ~tagged:false ~seal:Unsealed
          else set_model cd ~avail:(model.(cb).avail - v) ~tagged:true ~seal:Unsealed;
          Insn.CFromPtr (cd, cb, rt) );
      ( 4,
        fun () ->
          let cd = dst () in
          match List.filter usable derive_dst with
          | [] ->
              let cs = Fault.Prng.choose p derive_dst in
              taint cd;
              Insn.CSeal (cd, cs, 7)
          | pool ->
              let cs = Fault.Prng.choose p pool in
              set_model cd ~avail:model.(cs).avail ~tagged:true ~seal:Sealed;
              Insn.CSeal (cd, cs, 7) );
      ( 3,
        fun () ->
          let cd = dst () in
          match
            List.filter (fun c -> model.(c).tagged && model.(c).seal = Sealed) derive_dst
          with
          | cs_pool when cs_pool <> [] ->
              let cs = Fault.Prng.choose p cs_pool in
              set_model cd ~avail:model.(cs).avail ~tagged:true ~seal:Unsealed;
              Insn.CUnseal (cd, cs, 7)
          | _ -> (
              (* nothing surely sealed to unseal: seal something instead
                 when possible, otherwise take the seal-violation trap *)
              match List.filter usable derive_dst with
              | [] ->
                  let cs = Fault.Prng.choose p derive_dst in
                  taint cd;
                  Insn.CUnseal (cd, cs, 7)
              | pool ->
                  let cs = Fault.Prng.choose p pool in
                  set_model cd ~avail:model.(cs).avail ~tagged:true ~seal:Sealed;
                  Insn.CSeal (cd, cs, 7)) );
      ( 2,
        fun () ->
          let c = Fault.Prng.choose p any_cap in
          let off = 1 + Fault.Prng.int p 3 in
          shadow := max !shadow off;
          if Fault.Prng.bool p then Insn.CBTU (c, off) else Insn.CBTS (c, off) );
      ( 3,
        fun () ->
          let s = r () in
          let t = r () in
          let off = 1 + Fault.Prng.int p 3 in
          shadow := max !shadow off;
          if Fault.Prng.bool p then Insn.Beq (s, t, off) else Insn.Bne (s, t, off) );
    ]
  in
  let table =
    if cfg.wide then
      (* Push the compressed machine toward representability refusals:
         derive from the almighty-length c8 and bound with the
         unrepresentable length in r21, then let the CSC bias above try
         to store the result. *)
      ( 6,
        fun () ->
          let cd = dst () in
          set_model cd ~avail:(Int64.to_int world.w21) ~tagged:true ~seal:Unsealed;
          Insn.CSetLen (cd, 8, 21) )
      :: ( 3,
           fun () ->
             let cd = dst () in
             let rt = small () in
             set_model cd
               ~avail:(Int64.to_int wide_len - rval rt)
               ~tagged:true ~seal:Unsealed;
             Insn.CIncBase (cd, 8, rt) )
      :: table
    else table
  in
  (* CCall/CReturn unconditionally trap to the kernel (domain-crossing
     software path), ending the program — so they only appear in the
     last quarter, where they cost little of the straight-line tail. *)
  let terminal_table = (1, fun () -> Insn.CCall (3, 4)) :: (1, fun () -> Insn.CReturn) :: table in
  Array.init cfg.insns (fun idx ->
      (* Instructions inside a forward branch's shadow may be skipped:
         consume one shadow slot first (so a nested branch extends it
         correctly), then join this instruction's model updates with the
         pre-state, keeping only what holds on both paths. *)
      let pre =
        if !shadow > 0 then begin
          decr shadow;
          Some (Array.map copy_model model)
        end
        else None
      in
      let insn = weighted p (if 4 * idx >= 3 * cfg.insns then terminal_table else table) in
      (match pre with
      | None -> ()
      | Some old ->
          Array.iteri
            (fun i o ->
              let n = model.(i) in
              n.avail <- min n.avail o.avail;
              n.tagged <- n.tagged && o.tagged;
              if n.seal <> o.seal then n.seal <- Unknown_seal)
            old);
      insn)
