(* cheri_fault: seeded fault-injection campaigns over the Olden kernels.

     dune exec bin/cheri_fault.exe -- --bench treeadd --mode cheri --seeds 100
     dune exec bin/cheri_fault.exe -- --bench treeadd --mode all

   Each seed deterministically names one fault (site, target, bit, and
   injection time); the run is classified against a golden execution and
   the campaign prints an outcome-coverage table (docs/FAULTS.md).  With
   [--mode all] the CHERI modes and the unprotected baseline run the same
   seed set side by side.  Exit 2 = a refused --resume (no --checkpoint,
   or a checkpoint from another campaign). *)

open Cmdliner

let campaign bench modes seeds base_seed param sites verbose no_monitor checkpoint resume engine =
  let sites =
    match sites with
    | [] -> Fault.Injector.all_sites
    | names ->
        List.map
          (fun n ->
            match Fault.Injector.site_of_string n with
            | Some s -> s
            | None ->
                Fmt.epr "unknown site %S (expected gpr|cap|mem|tag)@." n;
                exit 2)
          names
  in
  Cli.check_bench bench;
  (* With several modes, each gets its own checkpoint file (the
     fingerprint covers the mode, so they cannot be mixed up).  A mode
     whose file does not exist yet starts at seed 0 under --resume, so a
     campaign killed during its first mode resumes cleanly. *)
  let checkpoint_for mode =
    match checkpoint with
    | None -> None
    | Some path when List.length modes > 1 ->
        Some (path ^ "." ^ Fault.Campaign.mode_name mode)
    | Some path -> Some path
  in
  let summaries =
    List.map
      (fun mode ->
        match
          Fault.Campaign.run ?checkpoint:(checkpoint_for mode) ~resume ~engine
            {
              Fault.Campaign.bench;
              mode;
              seeds;
              base_seed;
              param;
              sites;
              monitor = not no_monitor;
            }
        with
        | s -> s
        | exception Fault.Checkpoint.Refused msg ->
            Fmt.epr "%s@." msg;
            exit 2)
      modes
  in
  if verbose then
    List.iter
      (fun (s : Fault.Campaign.summary) ->
        Fmt.pr "--- %s ---@." (Fault.Campaign.mode_name s.Fault.Campaign.config.Fault.Campaign.mode);
        List.iter
          (fun (r : Fault.Campaign.record) ->
            Fmt.pr "seed %-6Ld %-32s %s (monitor: %d)@." r.Fault.Campaign.seed
              (Fault.Campaign.outcome_name r.Fault.Campaign.outcome)
              r.Fault.Campaign.injection r.Fault.Campaign.monitor_flags)
          s.Fault.Campaign.records)
      summaries;
  Fault.Campaign.print_table summaries

let seeds =
  Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"Injections per mode.")

let base_seed =
  Arg.(value & opt int64 1L & info [ "base-seed" ] ~docv:"S" ~doc:"First seed; run i uses S+i.")

let sites =
  Arg.(
    value
    & opt (list string) []
    & info [ "sites" ] ~docv:"SITES" ~doc:"Injection sites (gpr,cap,mem,tag); default all.")

let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Print the per-seed classification.")

let no_monitor =
  Arg.(value & flag & info [ "no-monitor" ] ~doc:"Skip the post-run invariant sweep.")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Write periodic campaign checkpoints to $(docv) (per-mode suffixes when several modes \
           run).")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ] ~doc:"Continue from the checkpoint file instead of starting over.")

let cmd =
  Cmd.v
    (Cmd.info "cheri_fault" ~doc:"Fault-injection campaigns against the CHERI machine model")
    Term.(
      const campaign $ Cli.bench $ Cli.fault_modes $ seeds $ base_seed $ Cli.param ~default:8
      $ sites $ verbose $ no_monitor $ checkpoint $ resume $ Cli.engine)

let () = exit (Cmd.eval cmd)
