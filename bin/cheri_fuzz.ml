(* cheri_fuzz: observational-correctness fuzzing of the machine model.

     dune exec bin/cheri_fuzz.exe -- --programs 10000
     dune exec bin/cheri_fuzz.exe -- --mode cheri --programs 5000 --jobs 4
     dune exec bin/cheri_fuzz.exe -- --checkpoint fuzz.ckpt --resume
     dune exec bin/cheri_fuzz.exe -- --replay 4242
     dune exec bin/cheri_fuzz.exe -- --replay-file corpus/fuzz-lockstep-4242.json

   Default mode is the differential lockstep harness: every seeded
   program runs on a 256-bit and a 128-bit machine simultaneously and
   all architecturally observable state is diffed at each retirement
   (docs/FAULTS.md).  `--mode engines` instead diffs the two interpreter
   engines (superblock vs plain step loop) on identical W256 machines
   with timing on.  Failures shrink to minimal reproducers and land in
   the corpus directory; any failure makes the exit status nonzero. *)

open Cmdliner

let failure_exit = 3

let make_cfg mode programs insns base_seed wide narrow =
  let mode =
    match Fuzz.Campaign.mode_of_string mode with
    | Some m -> m
    | None ->
        Fmt.epr "unknown mode %S (expected cheri|cheri128|lockstep|engines)@." mode;
        exit 2
  in
  let wide =
    if narrow then false
    else wide || mode = Fuzz.Campaign.Lockstep || mode = Fuzz.Campaign.Engines
  in
  { Fuzz.Campaign.mode; programs; insns; base_seed; wide }

(* Shrink one failing seed, print the minimized reproducer, and persist
   it when a corpus directory was given. *)
let shrink_one ~engine cfg corpus seed =
  match Fuzz.Campaign.shrink_failure ~engine cfg ~seed with
  | None -> Fmt.pr "seed %Ld: failure did not reproduce under replay@." seed
  | Some (f, checks) ->
      Fmt.pr "seed %Ld shrunk to %d instructions (%d candidate runs): %s@." seed
        (Array.length f.Fuzz.Corpus.program) checks f.Fuzz.Corpus.reason;
      Array.iter (fun i -> Fmt.pr "    %a@." Beri.Insn.pp i) f.Fuzz.Corpus.program;
      (match corpus with
      | Some dir -> Fmt.pr "  filed %s@." (Fuzz.Corpus.save ~dir f)
      | None -> ())

(* A refused resume (no --checkpoint, or a checkpoint this campaign
   cannot continue) exits 2. *)
let or_refused f =
  try f ()
  with Fault.Checkpoint.Refused msg ->
    Fmt.epr "%s@." msg;
    exit 2

let export json entry =
  match json with
  | Some path ->
      Obs.Export.write_file path [ entry ];
      Fmt.pr "wrote %s@." path
  | None -> ()

(* `--mode kernel` drives the protected-call surface fuzzer (Fuzz.Kfuzz):
   host-minted capability pairs through the kernel handlers against a
   pure model of the CCall/CReturn contract.  It shares --programs,
   --insns (scenario ops), --base-seed, --jobs, --checkpoint, --resume,
   --json, and --replay; corpus filing and shrinking are for instruction
   programs only. *)
let kernel_campaign programs insns base_seed jobs checkpoint resume json no_wall replay =
  let cfg = { Fuzz.Kfuzz.programs; ops = insns; base_seed } in
  match replay with
  | Some seed ->
      let desc, failed = Fuzz.Kfuzz.replay cfg ~seed in
      Fmt.pr "seed %Ld [kernel]:@.%s@." seed desc;
      if failed then exit failure_exit
  | None ->
      let r =
        or_refused (fun () -> Fuzz.Kfuzz.run ~jobs ?checkpoint ~resume ~wall:(not no_wall) cfg)
      in
      Fmt.pr "%a" Fuzz.Kfuzz.pp r;
      export json (Fuzz.Kfuzz.export_entry r);
      if not (Fuzz.Kfuzz.clean r) then exit failure_exit

let campaign mode programs insns base_seed wide narrow jobs checkpoint resume corpus json no_wall
    replay replay_file engine =
  if mode = "kernel" then
    kernel_campaign programs insns base_seed jobs checkpoint resume json no_wall replay
  else
  match (replay, replay_file) with
  | Some seed, _ ->
      let cfg = make_cfg mode programs insns base_seed wide narrow in
      let desc, failed = Fuzz.Campaign.replay ~engine cfg ~seed in
      Fmt.pr "seed %Ld [%s]: %s@." seed (Fuzz.Campaign.mode_key cfg.Fuzz.Campaign.mode) desc;
      if failed then begin
        shrink_one ~engine cfg corpus seed;
        exit failure_exit
      end
  | None, Some file -> (
      match Fuzz.Corpus.load file with
      | Error msg ->
          Fmt.epr "%s@." msg;
          exit 2
      | Ok f ->
          let cfg =
            make_cfg f.Fuzz.Corpus.mode programs f.Fuzz.Corpus.insns base_seed
              f.Fuzz.Corpus.wide
              (not f.Fuzz.Corpus.wide)
          in
          let desc, failed =
            Fuzz.Campaign.replay ~program:f.Fuzz.Corpus.program ~engine cfg
              ~seed:f.Fuzz.Corpus.seed
          in
          Fmt.pr "%s seed %Ld [%s]: %s@." file f.Fuzz.Corpus.seed f.Fuzz.Corpus.mode desc;
          Fmt.pr "  recorded reason: %s@." f.Fuzz.Corpus.reason;
          if failed then exit failure_exit)
  | None, None ->
      let cfg = make_cfg mode programs insns base_seed wide narrow in
      let r =
        or_refused (fun () ->
            Fuzz.Campaign.run ~jobs ?checkpoint ~resume ~wall:(not no_wall) ~engine cfg)
      in
      Fmt.pr "%a" Fuzz.Campaign.pp r;
      export json (Fuzz.Campaign.export_entry r);
      List.iter (fun (seed, _) -> shrink_one ~engine cfg corpus seed) r.Fuzz.Campaign.failures;
      if not (Fuzz.Campaign.clean r) then exit failure_exit

let mode =
  Arg.(
    value
    & opt string "lockstep"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"cheri|cheri128|lockstep|engines|kernel (default: lockstep).")

let programs =
  Arg.(value & opt int 1000 & info [ "programs" ] ~docv:"N" ~doc:"Programs per campaign.")

let insns =
  Arg.(value & opt int 24 & info [ "insns" ] ~docv:"N" ~doc:"Instructions per generated program.")

let base_seed =
  Arg.(value & opt int64 1L & info [ "base-seed" ] ~docv:"S" ~doc:"First seed; program i uses S+i.")

let wide =
  Arg.(
    value & flag
    & info [ "wide" ]
        ~doc:"Arm W128-unrepresentable bounds (default for lockstep; ignored for cheri128).")

let narrow =
  Arg.(
    value & flag
    & info [ "narrow" ] ~doc:"Keep every capability 128-bit-representable, even in lockstep mode.")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Save the campaign to $(docv) after every batch of chunks and at the end.")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ] ~doc:"Continue from the checkpoint file instead of starting over.")

let corpus =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR" ~doc:"Persist minimized failing programs under $(docv).")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Export the campaign through the lib/obs bench schema.")

let replay =
  Arg.(
    value
    & opt (some int64) None
    & info [ "replay" ] ~docv:"SEED" ~doc:"Replay one seed's generated program and exit.")

let replay_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay-file" ] ~docv:"FILE" ~doc:"Replay a minimized corpus file and exit.")

let cmd =
  Cmd.v
    (Cmd.info "cheri_fuzz" ~doc:"Differential observational-correctness fuzzing of the CHERI model")
    Term.(
      const campaign $ mode $ programs $ insns $ base_seed $ wide $ narrow $ Cli.jobs $ checkpoint
      $ resume $ corpus $ json $ Cli.no_wall $ replay $ replay_file $ Cli.engine)

let () = exit (Cmd.eval cmd)
