(* Engine-differential execution: the same seeded program runs on two
   256-bit machines that differ in exactly one respect — the interpreter
   engine (superblock vs plain step loop).  The two engines are required
   to be architecturally indistinguishable, so *everything* observable
   must agree at the end of the run: the outcome class, the exception
   identity, PC, the scalar and capability register files, PCC, the
   retired-instruction count, the cycle count (timing is ON here, unlike
   the other fuzz modes — the superblock tier charges its own I-side
   costs, and this is the harness that checks them), the memory
   hierarchy's event counters, and the full store stream.

   Unlike [Lockstep], the comparison is per *run*, not per retirement:
   stepping the superblock machine one instruction at a time (or hanging
   a step hook off it) would force its hook-aware paths and leave the
   unhooked fast loop — the code that actually runs full-size
   benchmarks — untested.  The store stream closes the per-step
   observability gap: every store an instruction performs is folded
   (address, kind, payload) into a running digest through the machine's
   store hook, which fires identically under both engines and does not
   perturb superblock formation.  Any intermediate architectural
   divergence either changes a later store / final state (caught) or was
   never observable in the first place. *)

type outcome =
  | Agree of Exec.outcome * int (* identical observations; shared outcome + retired count *)
  | Engine_mismatch of { what : string } (* any observable difference: an engine bug *)

let outcome_key = function
  | Agree (o, _) -> Exec.outcome_key o
  | Engine_mismatch _ -> "mismatch"

let pp_outcome ppf = function
  | Agree (o, n) -> Fmt.pf ppf "engines agree after %d retirements: %a" n Exec.pp_outcome o
  | Engine_mismatch { what } -> Fmt.pf ppf "ENGINE MISMATCH: %s" what

(* One machine per engine.  Timing stays ON (see above); both sides see
   the same program sequence, so reused machines' cache/TLB states evolve
   identically and never desynchronize the comparison. *)
let create_pair () =
  let mk engine =
    let m = Gen.create_machine ~engine Machine.W256 in
    Machine.set_timing m true;
    m
  in
  (mk Machine.Superblock, mk Machine.Plain)

(* Store-stream digest: splitmix-style fold of (addr, kind, payload)
   triples, plus a count.  Collisions would need an adversarial engine
   bug; any plausible divergence perturbs the digest. *)
type stream = { mutable count : int; mutable digest : int64 }

let mix h v =
  let h = Int64.mul (Int64.logxor h v) 0xFF51_AFD7_ED55_8CCDL in
  Int64.logxor h (Int64.shift_right_logical h 33)

let record st addr kind payload =
  st.count <- st.count + 1;
  st.digest <- mix (mix (mix st.digest addr) (Int64.of_int kind)) payload

(* A run on one machine: outcome class + retired count + store stream +
   cycle count.  [last_exc] and register state are read off the machine
   afterwards (the caller compares the two sides' final states). *)
let run_one m (cfg : Gen.cfg) seed program =
  Gen.reset m cfg seed;
  Gen.load m program;
  let st = { count = 0; digest = 0x9E37_79B9_7F4A_7C15L } in
  Machine.set_store_hook m (Some (fun addr kind payload -> record st addr kind payload));
  let start_i = m.Machine.instret and start_c = m.Machine.cycles in
  let result = Machine.run_result ~max_insns:(Int64.of_int (Gen.budget cfg)) m in
  Machine.set_store_hook m None;
  (result, m.Machine.instret - start_i, m.Machine.cycles - start_c, st)

let result_class = function
  | Machine.Exited code -> Printf.sprintf "exited(%d)" code
  | Machine.Budget_exhausted _ -> "budget-exhausted"
  | Machine.Watchdog_hang _ -> "watchdog-hang"
  | Machine.Trap_unhandled (ctx, _) ->
      Printf.sprintf "trap-unhandled(%s)" (Beri.Cp0.exc_to_string ctx.Machine.exc)

(* First observable difference between the two finished machines, or
   [None].  The register comparison is exact ([Capability.equal], not the
   cross-width observational rule): both machines are W256, so even
   untagged CLC residue must match bit for bit. *)
let compare_final (ms : Machine.t) (mp : Machine.t) =
  let diff = ref None in
  let note what = if !diff = None then diff := Some what in
  if ms.Machine.pc <> mp.Machine.pc then
    note (Printf.sprintf "pc: 0x%Lx vs 0x%Lx" ms.Machine.pc mp.Machine.pc);
  for i = 1 to 31 do
    let a = Machine.gpr ms i and b = Machine.gpr mp i in
    if a <> b then note (Printf.sprintf "r%d: 0x%Lx vs 0x%Lx" i a b)
  done;
  if ms.Machine.regs.Beri.Regs.hi <> mp.Machine.regs.Beri.Regs.hi then note "hi differs";
  if ms.Machine.regs.Beri.Regs.lo <> mp.Machine.regs.Beri.Regs.lo then note "lo differs";
  for j = 0 to 31 do
    if not (Cap.Capability.equal (Machine.cap ms j) (Machine.cap mp j)) then
      note
        (Printf.sprintf "c%d: %s vs %s" j
           (Fmt.str "%a" Cap.Capability.pp (Machine.cap ms j))
           (Fmt.str "%a" Cap.Capability.pp (Machine.cap mp j)))
  done;
  if not (Cap.Capability.equal ms.Machine.pcc mp.Machine.pcc) then note "pcc differs";
  (match (ms.Machine.cp0.Beri.Cp0.last_exc, mp.Machine.cp0.Beri.Cp0.last_exc) with
  | Some a, Some b when a <> b ->
      note
        (Printf.sprintf "last exception: %s vs %s" (Beri.Cp0.exc_to_string a)
           (Beri.Cp0.exc_to_string b))
  | Some a, None -> note (Printf.sprintf "last exception: %s vs none" (Beri.Cp0.exc_to_string a))
  | None, Some b -> note (Printf.sprintf "last exception: none vs %s" (Beri.Cp0.exc_to_string b))
  | _ -> ());
  (* Memory-hierarchy event counters: the superblock tier charges the
     timing model itself, so hit/miss totals are part of the contract. *)
  let cs = Obs.Counters.create () and cp = Obs.Counters.create () in
  Mem.Hierarchy.fill_counters ms.Machine.hier cs;
  Mem.Hierarchy.fill_counters mp.Machine.hier cp;
  Array.iteri
    (fun i name ->
      if
        (* engine telemetry legitimately differs; architectural counters may not *)
        Obs.Counters.is_architectural i && Obs.Counters.get cs i <> Obs.Counters.get cp i
      then
        note
          (Printf.sprintf "counter %s: %Ld vs %Ld" name (Obs.Counters.get cs i)
             (Obs.Counters.get cp i)))
    Obs.Counters.names;
  !diff

(* Run [program] for [seed] on the engine pair.  Both machines are
   deterministically reset; they may be reused across calls. *)
let run (cfg : Gen.cfg) ~seed ~program ~(m_sb : Machine.t) ~(m_plain : Machine.t) =
  let r_sb, i_sb, c_sb, st_sb = run_one m_sb cfg seed program in
  let r_plain, i_plain, c_plain, st_plain = run_one m_plain cfg seed program in
  let mismatch what = Engine_mismatch { what } in
  if result_class r_sb <> result_class r_plain then
    mismatch
      (Printf.sprintf "outcome: %s vs %s" (result_class r_sb) (result_class r_plain))
  else if i_sb <> i_plain then mismatch (Printf.sprintf "instret: %d vs %d" i_sb i_plain)
  else if c_sb <> c_plain then mismatch (Printf.sprintf "cycles: %d vs %d" c_sb c_plain)
  else if st_sb.count <> st_plain.count then
    mismatch (Printf.sprintf "store count: %d vs %d" st_sb.count st_plain.count)
  else if st_sb.digest <> st_plain.digest then
    mismatch
      (Printf.sprintf "store stream digest: 0x%Lx vs 0x%Lx" st_sb.digest st_plain.digest)
  else
    match compare_final m_sb m_plain with
    | Some what -> mismatch ("final state: " ^ what)
    | None ->
        let outcome =
          match r_sb with
          | Machine.Exited _ -> Exec.classify_exit m_sb
          | Machine.Budget_exhausted _ | Machine.Watchdog_hang _ -> Exec.Hang
          | Machine.Trap_unhandled (ctx, _) -> Exec.Other_trap ctx.Machine.exc
        in
        Agree (outcome, i_sb)
