(* Seeded fault-injection campaigns over the Olden kernels.

   One campaign = one benchmark x one pointer mode x N seeds.  Every seed
   names exactly one fault ([Injector.plan]); the faulted run is compared
   against a golden (fault-free) run of the same binary and classified:

     masked        the program produced the golden output and exit code
     detected-cap  the first trap was a CP2 capability exception
     detected-trap the first trap was any other exception (TLB, address
                   error, overflow, ...), or the kernel model itself died
     sdc           silent data corruption: ran to completion, wrong output
     hang          watchdog proved a loop, or the budget ran out

   The paper's Sections 3-4 claim is that capabilities turn pointer
   corruption into precise exceptions; the campaign quantifies it as
   detected-cap mass that the unprotected baseline simply does not have. *)

type mode = Baseline | Cheri | Cheri128

let mode_name = function Baseline -> "baseline" | Cheri -> "cheri" | Cheri128 -> "cheri128"

let mode_of_string = function
  | "baseline" | "legacy" -> Some Baseline
  | "cheri" -> Some Cheri
  | "cheri128" -> Some Cheri128
  | _ -> None

let layout_mode = function
  | Baseline -> Minic.Layout.Legacy
  | Cheri -> Minic.Layout.Cheri
  | Cheri128 -> Minic.Layout.Cheri128

(* [Detected_monitor]: no trap, but the sampled invariant monitor flagged a
   violation while the program was still running — corruption that would
   otherwise have been silent (masked or SDC) surfaced as a diagnostic.
   Only the capability machine has the tags and bounded capabilities the
   monitor's oracles are defined over, so this class is structurally empty
   for the unprotected baseline. *)
type outcome = Masked | Detected_cap | Detected_trap | Detected_monitor | Sdc | Hang

let all_outcomes = [ Masked; Detected_cap; Detected_trap; Detected_monitor; Sdc; Hang ]

let outcome_name = function
  | Masked -> "masked"
  | Detected_cap -> "detected: capability exception"
  | Detected_trap -> "detected: other trap"
  | Detected_monitor -> "detected: invariant monitor"
  | Sdc -> "silent data corruption"
  | Hang -> "hang (watchdog/budget)"

type record = {
  seed : int64;
  outcome : outcome;
  injection : string; (* what was corrupted, e.g. "cap c3 bit 217" *)
  monitor_flags : int; (* violations at the first monitor sweep that flagged *)
}

type config = {
  bench : string;
  mode : mode;
  seeds : int;
  base_seed : int64;
  param : int; (* benchmark size parameter (e.g. treeadd levels) *)
  sites : Injector.site list;
  monitor : bool; (* run the invariant sweep after every faulted run *)
}

let default_config =
  {
    bench = "treeadd";
    mode = Cheri;
    seeds = 100;
    base_seed = 1L;
    param = 8;
    sites = Injector.all_sites;
    monitor = true;
  }

type summary = {
  config : config;
  golden_exit : int;
  golden_output : string;
  golden_instret : int64;
  tallies : (outcome * int) list;
      (* every outcome's count over the whole campaign, the seeds of a
         resumed checkpoint included *)
  records : record list; (* the seeds this process actually ran *)
}

let count s o = List.assoc o s.tallies

let fraction s o =
  if s.config.seeds = 0 then 0.0 else 100.0 *. float_of_int (count s o) /. float_of_int s.config.seeds

(* Detected = a precise trap or a monitor diagnostic fired before the
   program could finish with silently corrupt state. *)
let detected_fraction s =
  fraction s Detected_cap +. fraction s Detected_trap +. fraction s Detected_monitor

(* --- machine plumbing --------------------------------------------------- *)

let fresh_machine ?engine mode =
  let m = Exp.Bench_run.machine_for (layout_mode mode) in
  (match engine with Some e -> Machine.set_engine m e | None -> ());
  (* Campaigns measure detection, not cycles: functional mode makes a
     100-seed sweep interactive. *)
  Machine.set_timing m false;
  m

let compile cfg =
  let src = List.assoc cfg.bench Olden.Minic_src.all in
  let src = Olden.Minic_src.instantiate ~iters:1 src ~param:cfg.param in
  Asm.Assembler.assemble (Minic.Driver.compile ~mode:(layout_mode cfg.mode) src)

(* The fault-free reference execution.  Besides the output, exit code and
   instruction count (the injection window), it records the program's live
   footprint: every allocation (via the runtime's trace.alloc markers,
   rounded to malloc's 32-byte granularity) and the deepest stack extent.
   Memory faults target exactly these regions — the bump allocator grabs
   64 KB arenas from the kernel, so injecting uniformly over [heap_base,
   brk) would mostly upset words no instruction ever reads. *)
type golden = {
  exit_code : int;
  output : string;
  instret : int64;
  brk : int64;
  stack : int64 * int64; (* deepest stack window, (addr, len) *)
  live : (int64 * int64) array; (* allocations + stack window, (addr, len) *)
}

let golden_run ?engine cfg program =
  let m = fresh_machine ?engine cfg.mode in
  let k = Os.Kernel.attach m in
  let allocs = ref [] in
  Machine.set_trace_hook m (fun _ marker size addr ->
      match marker with
      | Beri.Insn.M_alloc ->
          allocs := (addr, Int64.logand (Int64.add size 31L) (-32L)) :: !allocs
      | _ -> ());
  let min_sp = ref k.Os.Kernel.stack_top in
  Machine.set_step_hook m
    (Some
       (fun m ->
         let sp = Machine.gpr m Beri.Regs.sp in
         if Int64.unsigned_compare sp !min_sp < 0 then min_sp := sp));
  match Os.Kernel.run_result ~max_insns:2_000_000_000L k program with
  | Machine.Exited code, out ->
      let stack = (!min_sp, Int64.sub k.Os.Kernel.stack_top !min_sp) in
      {
        exit_code = code;
        output = out;
        instret = Int64.of_int m.Machine.instret;
        brk = k.Os.Kernel.brk;
        stack;
        live = Array.of_list (List.rev (stack :: !allocs));
      }
  | abnormal, _ ->
      Fmt.failwith "campaign: golden run of %s/%s did not exit cleanly: %a" cfg.bench
        (mode_name cfg.mode) Machine.pp_run_result abnormal

(* The unprotected baseline has no capability registers or tag table
   carrying program state, so those two fault sites do not exist on it.
   To keep the per-mode injection *rate* comparable, their mass remaps to
   the corresponding architectural structure (register file / memory)
   rather than being dropped. *)
let effective_sites cfg =
  match cfg.mode with
  | Baseline ->
      List.map
        (function
          | Injector.Cap_reg -> Injector.Gpr | Injector.Tag_bit -> Injector.Mem_word | s -> s)
        cfg.sites
  | Cheri | Cheri128 -> cfg.sites

(* How often the sampled invariant monitor runs, in retired instructions.
   Between samples corruption is only caught by the trap machinery; a
   smaller period catches more transient violations at proportional cost
   (the monitor only starts sampling once the injection has fired).
   Native int: the period check runs on every retired instruction, and
   [Machine.instret] is a native int — going through [Int64.rem] boxed a
   fresh Int64 per retirement on the hot path. *)
let monitor_period = 512

(* One faulted run under seed [seed]. *)
let faulted_run ?engine cfg ~program ~(golden : golden) ~heap_len seed =
  let m = fresh_machine ?engine cfg.mode in
  let k = Os.Kernel.attach m in
  let first_fault = ref None in
  Os.Kernel.set_fault_handler k (fun _k f ->
      if !first_fault = None then first_fault := Some f.Os.Kernel.exc;
      Machine.Halt 139);
  let inj =
    Injector.plan ~seed ~sites:(effective_sites cfg) ~regions:golden.live ~window:golden.instret
      ()
  in
  Os.Kernel.exec k program;
  (* The monitor sweeps the register file, the heap, and the stack window
     the golden run reached (with a page of slack for deeper faulted
     runs).  Its root delegation is the kernel's user-space grant. *)
  let root = Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:k.Os.Kernel.user_top in
  let stack_base = Int64.sub (fst golden.stack) 4096L in
  let stack_len = Int64.sub k.Os.Kernel.stack_top stack_base in
  let monitor_flags = ref 0 in
  let sweep () =
    let violations =
      Monitor.check ~root m ~base:Os.Layout.heap_base ~len:heap_len
      @ Monitor.check_memory ~root m ~base:stack_base ~len:stack_len
    in
    if violations <> [] && !monitor_flags = 0 then monitor_flags := List.length violations
  in
  (* One step hook multiplexes the injector and the sampled monitor; the
     monitor only runs on post-injection state (anything earlier is the
     golden execution) and stops after its first hit. *)
  Machine.set_step_hook m
    (Some
       (fun m ->
         Injector.poll inj m;
         if
           cfg.monitor && Injector.fired inj && !monitor_flags = 0
           && m.Machine.instret mod monitor_period = 0
         then sweep ()));
  let budget = Int64.add (Int64.mul golden.instret 4L) 100_000L in
  let result = Machine.run_result ~max_insns:budget ~watchdog:1024 m in
  (* Final sweep: corruption that persists to the end of the run is
     detectable even if every sample missed it. *)
  if cfg.monitor && !monitor_flags = 0 then sweep ();
  let outcome =
    match result with
    | Machine.Budget_exhausted _ | Machine.Watchdog_hang _ -> Hang
    | Machine.Trap_unhandled _ -> Detected_trap
    | Machine.Exited code -> (
        match !first_fault with
        (* On the baseline a CP2 fault can only come from the almighty
           legacy root: the access ran off the top of the modelled address
           space.  Real legacy hardware would take a TLB or bus fault
           there, so it counts as a generic trap, not capability
           detection. *)
        | Some (Beri.Cp0.Cp2 _) when cfg.mode <> Baseline -> Detected_cap
        | Some _ -> Detected_trap
        | None ->
            if !monitor_flags > 0 then Detected_monitor
            else if code = golden.exit_code && String.equal (Os.Kernel.console k) golden.output
            then Masked
            else Sdc)
  in
  {
    seed;
    outcome;
    injection = (match Injector.description inj with Some d -> d | None -> "<did not fire>");
    monitor_flags = !monitor_flags;
  }

(* Stable short outcome keys for checkpoint tallies (the long
   [outcome_name] strings are display text, not a file format). *)
let outcome_key = function
  | Masked -> "masked"
  | Detected_cap -> "detected-cap"
  | Detected_trap -> "detected-trap"
  | Detected_monitor -> "detected-monitor"
  | Sdc -> "sdc"
  | Hang -> "hang"

(* The checkpoint fingerprint: everything that determines the per-seed
   classification.  Resuming under a different config would silently mix
   incomparable outcome streams, so the driver refuses on mismatch. *)
let fingerprint cfg =
  Printf.sprintf "fault:%s:%s:seeds=%d:base=%Ld:param=%d:sites=%s:monitor=%b" cfg.bench
    (mode_name cfg.mode) cfg.seeds cfg.base_seed cfg.param
    (String.concat "," (List.map Injector.site_name cfg.sites))
    cfg.monitor

(* [checkpoint], [resume], [stop_after]: as for [Checkpoint.run], which
   saves after every chunk of seeds.  Every seed is deterministic, so a
   resumed summary's tallies equal an uninterrupted run's. *)
let run ?checkpoint ?resume ?stop_after ?engine cfg =
  let program = compile cfg in
  let golden = golden_run ?engine cfg program in
  (* The invariant monitor still sweeps the whole heap the golden run
     touched (plus a page of slack for allocator state). *)
  let heap_len = Int64.add (Int64.sub golden.brk Os.Layout.heap_base) 4096L in
  let chunk (lo, len) =
    let records =
      List.init len (fun i ->
          faulted_run ?engine cfg ~program ~golden ~heap_len
            (Int64.add cfg.base_seed (Int64.of_int (lo + i))))
    in
    let tally o = Int64.of_int (List.length (List.filter (fun r -> r.outcome = o) records)) in
    {
      Checkpoint.counts = Array.of_list (List.map tally all_outcomes);
      retired = 0L;
      histograms = [];
      failures = [];
      records;
    }
  in
  (* Fault summaries report no host time, so the checkpoint carries none. *)
  let { Checkpoint.merged; _ } =
    Checkpoint.run ?path:checkpoint ?resume ?stop_after ~wall:false ~kind:"fault"
      ~fingerprint:(fingerprint cfg)
      ~keys:(Array.of_list (List.map outcome_key all_outcomes))
      ~hists:[] ~seeds:cfg.seeds chunk
  in
  {
    config = cfg;
    golden_exit = golden.exit_code;
    golden_output = golden.output;
    golden_instret = golden.instret;
    tallies = List.mapi (fun i o -> (o, Int64.to_int merged.Checkpoint.counts.(i))) all_outcomes;
    records = merged.Checkpoint.records;
  }

(* --- reporting ----------------------------------------------------------- *)

let pp_table ppf (summaries : summary list) =
  match summaries with
  | [] -> ()
  | first :: _ ->
      Fmt.pf ppf "fault-injection coverage: %s (param %d, %d seeds/mode, sites: %s)@,"
        first.config.bench first.config.param first.config.seeds
        (String.concat "," (List.map Injector.site_name first.config.sites));
      Fmt.pf ppf "%-32s" "outcome";
      List.iter (fun s -> Fmt.pf ppf " %12s" (mode_name s.config.mode)) summaries;
      Fmt.pf ppf "@,";
      List.iter
        (fun o ->
          Fmt.pf ppf "%-32s" (outcome_name o);
          List.iter (fun s -> Fmt.pf ppf " %11.1f%%" (fraction s o)) summaries;
          Fmt.pf ppf "@,")
        all_outcomes;
      Fmt.pf ppf "%-32s" "detected total";
      List.iter (fun s -> Fmt.pf ppf " %11.1f%%" (detected_fraction s)) summaries;
      Fmt.pf ppf "@,";
      Fmt.pf ppf "%-32s" "golden instret";
      List.iter (fun s -> Fmt.pf ppf " %12Ld" s.golden_instret) summaries;
      Fmt.pf ppf "@,"

let print_table summaries = Fmt.pr "@[<v>%a@]@." pp_table summaries
