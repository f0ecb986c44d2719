(* cheri_run: assemble and execute a BERI/CHERI assembly file on the
   simulated machine.

     dune exec bin/cheri_run.exe -- program.s [--markers] [--disasm] [--stats]
     dune exec bin/cheri_run.exe -- program.s --trace out.json --series 10000
     dune exec bin/cheri_run.exe -- program.s --events out.jsonl

   The program runs under the kernel model with the full user address
   space delegated (Section 4.3); console output (putchar/write/print_int
   syscalls) goes to stdout, and the process exit code becomes this
   tool's exit code.  `--trace FILE` records the cycle-timestamped
   timeline (phase markers, kernel domain crossings, traps) and writes
   it as Chrome trace-event JSON; `--series N` adds counter tracks
   sampled every N retirements; `--events FILE` streams the structured
   event bus as JSON lines. *)

open Cmdliner

let run file disasm markers stats max_insns trace_file series events_file engine =
  let source = In_channel.with_open_text file In_channel.input_all in
  let program =
    try Asm.Assembler.assemble source
    with Asm.Assembler.Error (line, msg) ->
      Fmt.epr "%s:%d: %s@." file line msg;
      exit 2
  in
  if disasm then
    List.iter
      (fun (base, bytes) ->
        Fmt.pr "; segment at 0x%Lx (%d bytes)@." base (String.length bytes);
        if Int64.compare base 0x100_000L < 0 then
          let m = Machine.create () in
          Mem.Phys.write_bytes m.Machine.phys base (Bytes.of_string bytes);
          List.iter print_endline
            (Asm.Disasm.range m ~addr:base ~count:(String.length bytes / 4)))
      program.Asm.Assembler.segments;
  let machine = Machine.create () in
  Machine.set_engine machine engine;
  let kernel = Os.Kernel.attach machine in
  (* The probe feeds the instruction-class counters (cap_ops, branches,
     ...) in the --stats counter file; without it they would read 0. *)
  if stats then Machine.set_probe machine (Some (Obs.Probe.create ()));
  Os.Kernel.set_fault_handler kernel (fun _k fault ->
      Fmt.epr "fatal fault at pc=0x%Lx: %s [%s] (badvaddr=0x%Lx, capcause=%s/C%d, instret=%Ld, cycles=%Ld)@."
        fault.Os.Kernel.pc
        (Beri.Cp0.exc_to_string fault.Os.Kernel.exc)
        fault.Os.Kernel.disasm fault.Os.Kernel.badvaddr
        (Cap.Cause.to_string fault.Os.Kernel.capcause)
        fault.Os.Kernel.capreg fault.Os.Kernel.instret fault.Os.Kernel.cycles;
      Machine.Halt 139);
  let bus, close_events =
    match events_file with
    | Some path ->
        let oc = open_out path in
        let bus = Obs.Event.create () in
        Obs.Event.subscribe bus (Obs.Event.channel_sink oc);
        (Some bus, fun () -> close_out oc)
    | None -> (None, fun () -> ())
  in
  (* A standalone program has no request stream: the collector stays
     armed from creation, so phase markers, kernel crossings, and traps
     all land on the timeline with req = -1. *)
  let trace = match trace_file with Some _ -> Some (Obs.Trace.create ()) | None -> None in
  Os.Kernel.set_obs ?bus ?trace kernel;
  let series =
    if series > 0 then begin
      let s =
        Obs.Series.create ~interval:series
          ~read:(fun () -> Os.Kernel.read_counters kernel)
          ()
      in
      Machine.set_step_hook machine (Some (fun m -> Obs.Series.tick s ~instret:m.Machine.instret));
      Some s
    end
    else None
  in
  (* One trace hook serves both consumers: --markers prints each marker,
     --trace records the phase spans on the cycle timeline. *)
  (match (markers, trace) with
  | false, None -> ()
  | _ ->
      Machine.set_trace_hook machine (fun m marker a b ->
          if markers then
            Fmt.epr "[trace] cycle %d: %s %Ld %Ld@." m.Machine.cycles
              (Beri.Insn.marker_name marker) a b;
          match (trace, marker) with
          | Some tr, Beri.Insn.M_phase_begin ->
              Obs.Trace.phase_begin tr ~ts:m.Machine.cycles (Exp.Bench_run.phase_name a)
          | Some tr, Beri.Insn.M_phase_end -> Obs.Trace.phase_end tr ~ts:m.Machine.cycles
          | _ -> ()));
  Os.Kernel.exec kernel program;
  let result = Machine.run_result ~max_insns machine in
  (match result with
  | Machine.Exited _ -> ()
  | r -> Fmt.epr "[machine] %a@." Machine.pp_run_result r);
  close_events ();
  (match (trace_file, trace) with
  | Some path, Some tr ->
      let parts =
        Obs.Trace.to_chrome_events ~pid:1 ~process:(Filename.basename file) tr
        @ match series with Some s -> Obs.Series.to_chrome_events ~pid:1 s | None -> []
      in
      Obs.Trace.write_chrome path parts;
      Fmt.epr "wrote %s@." path
  | _ -> ());
  print_string (Os.Kernel.console kernel);
  if stats then begin
    (* The obs counter file (instret, cycles, cache/TLB/tag events) plus
       the hierarchy's own per-cache breakdown. *)
    Fmt.epr "%a@." Obs.Counters.pp (Machine.read_counters machine);
    Fmt.epr "%a@." Mem.Hierarchy.pp_stats machine.Machine.hier
  end;
  exit (Machine.exit_code result)

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.S")
let disasm = Arg.(value & flag & info [ "disasm" ] ~doc:"Print a disassembly before running.")

(* Until the Chrome-trace export took the spelling, `--trace` was this
   boolean; `--markers` is the old behaviour. *)
let markers = Arg.(value & flag & info [ "markers" ] ~doc:"Print instrumentation markers.")
let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print cycle and cache statistics.")

let events_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE" ~doc:"Stream the structured event bus as JSON lines.")

let cmd =
  Cmd.v
    (Cmd.info "cheri_run" ~doc:"Run a BERI/CHERI assembly program on the simulated machine")
    Term.(
      const run $ file $ disasm $ markers $ stats
      $ Cli.max_insns ~default:1_000_000_000L
      $ Cli.trace_file $ Cli.series $ events_file $ Cli.engine)

let () = exit (Cmd.eval cmd)
