(* Compile-and-execute harness for the Section 8 experiments: runs a minic
   source on the simulated machine and collects the measurements Figures 4
   and 5 are built from.  All accounting is delegated to lib/obs: the
   trace markers open and close counter-file spans, and the result record
   carries the final counter snapshot plus the per-phase aggregates (the
   markers are free, so instrumentation does not perturb the clock). *)

type phase_times = { alloc_cycles : int64; compute_cycles : int64 }

type result = {
  bench : string;
  mode : Minic.Layout.mode;
  exit_code : int;
  output : string list; (* print_int lines *)
  cycles : int64;
  instrs : int64;
  phases : phase_times;
  heap_bytes : int64;
  l1d_misses : int;
  l2_misses : int;
  tlb_misses : int;
  counters : Obs.Counters.t; (* the full counter file at exit *)
  spans : (string * Obs.Counters.t) list; (* per-phase counter deltas *)
  series : Obs.Series.t option; (* counter time-series, when sampled *)
}

(* Phase ids the minic runtime passes to trace.phase_begin. *)
let phase_name id =
  match Int64.to_int id with
  | 0 -> "alloc"
  | 1 -> "compute"
  | n -> Printf.sprintf "phase-%d" n

(* A machine configured for the mode: cheri128 code needs the 128-bit
   capability machine (16-byte capability accesses, 16-byte tag lines);
   [big_mem] (paper-size workloads) provisions 512 MB. *)
let machine_for ?(big_mem = false) (mode : Minic.Layout.mode) =
  let config =
    match mode with
    | Minic.Layout.Cheri128 -> { Machine.default_config with Machine.cap_width = Machine.W128 }
    | _ -> Machine.default_config
  in
  let config =
    if big_mem then { config with Machine.mem_size = 512 * 1024 * 1024 } else config
  in
  Machine.create ~config ()

(* Execute [source] (after @PARAM@ substitution) under [mode].

   [probe] attaches an observability probe (instruction-class counters,
   PC-sample profiling); [bus] routes span/alloc/fault events onto a
   shared event stream; [inspect] runs against the machine after the
   program exits, before it is dropped — profilers use it to resolve
   sampled PCs against the loaded image. *)
let run ?(max_insns = 20_000_000_000L) ?(iters = 1) ?(big_mem = false) ?engine ?probe ?bus
    ?trace ?series_interval ?span_durations ?inspect ~bench ~mode ~param source =
  let source = Olden.Minic_src.instantiate ~iters source ~param in
  let asm = Minic.Driver.compile ~mode source in
  let m = machine_for ~big_mem mode in
  (* [engine] selects the interpreter engine (plain vs superblock) — a
     host-speed knob with no architectural effect; [None] keeps the
     machine default. *)
  (match engine with Some e -> Machine.set_engine m e | None -> ());
  let k = Os.Kernel.attach m in
  Machine.set_probe m probe;
  let span =
    Obs.Span.create ?bus ?durations:span_durations ?trace
      ~read:(fun () -> Os.Kernel.read_counters k)
      ()
  in
  Os.Kernel.set_obs ?bus ~span ?trace k;
  let series =
    match series_interval with
    | Some interval ->
        let s = Obs.Series.create ~interval ~read:(fun () -> Os.Kernel.read_counters k) () in
        Machine.set_step_hook m (Some (fun m -> Obs.Series.tick s ~instret:m.Machine.instret));
        Some s
    | None -> None
  in
  let allocated_bytes = ref 0L in
  Machine.set_trace_hook m (fun _m marker a _b ->
      match marker with
      | Beri.Insn.M_phase_begin -> Obs.Span.enter span (phase_name a)
      | Beri.Insn.M_phase_end -> Obs.Span.exit span
      | Beri.Insn.M_alloc ->
          allocated_bytes := Int64.add !allocated_bytes a;
          (match bus with
          | Some bus -> Obs.Event.emit bus ~kind:"alloc" [ ("bytes", Obs.Json.Int a) ]
          | None -> ())
      | Beri.Insn.M_free -> ());
  let result, console = Os.Kernel.run_program ~max_insns k asm in
  (match result with
  | Machine.Exited _ -> ()
  | r -> Fmt.epr "[%s/%s] %a@." bench (Minic.Layout.mode_name mode) Machine.pp_run_result r);
  let exit_code = Machine.exit_code result in
  Obs.Span.close_all span;
  (match inspect with Some f -> f m | None -> ());
  let counters = Os.Kernel.read_counters k in
  let spans = Obs.Span.totals span in
  let get = Obs.Counters.get counters in
  let output =
    String.split_on_char '\n' console |> List.filter (fun s -> String.trim s <> "")
  in
  {
    bench;
    mode;
    exit_code;
    output;
    cycles = get Obs.Counters.cycles;
    instrs = get Obs.Counters.instret;
    phases =
      {
        alloc_cycles = Obs.Span.cycles_of span "alloc";
        compute_cycles = Obs.Span.cycles_of span "compute";
      };
    heap_bytes = !allocated_bytes;
    l1d_misses = Int64.to_int (get Obs.Counters.l1d_misses);
    l2_misses = Int64.to_int (get Obs.Counters.l2_misses);
    tlb_misses = Int64.to_int (get Obs.Counters.tlb_misses);
    counters;
    spans;
    series;
  }

let pct_overhead ~baseline v =
  if Int64.equal baseline 0L then 0.0
  else 100.0 *. Int64.to_float (Int64.sub v baseline) /. Int64.to_float baseline
