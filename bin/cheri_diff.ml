(* cheri_diff: the differential regression harness's CLI — compare two
   `BENCH_obs.json`-schema exports counter-by-counter and classify every
   delta against the threshold policy (Obs.Diff).

     dune exec bin/cheri_diff.exe -- A.json B.json
     dune exec bin/cheri_diff.exe -- BENCH_obs.json            # vs the committed baseline
     dune exec bin/cheri_diff.exe -- --baseline DIR B.json
     dune exec bin/cheri_diff.exe -- A.json B.json --json

   With two files, A is the reference and B the candidate.  With one,
   the reference is `<baseline-dir>/BENCH_obs.json` (the committed
   baseline; `--baseline` overrides the directory).  Architectural
   counters (the kernel crossing counters included) must match exactly;
   wall-clock fields get a tolerance band (`--wall-tol`, report-only
   unless `--strict-wall`).

   Exit status: 0 = no regression, 1 = an architectural counter
   differed or a run is missing (or a wall delta under `--strict-wall`),
   2 = a file could not be loaded (unsupported schemas, i.e. anything
   other than cheri-obs-bench/5 and cheri-obs-trace/1, included). *)

open Cmdliner

let load path =
  match Obs.Baseline.load path with
  | Ok t -> t
  | Error msg ->
      Fmt.epr "cheri_diff: %s@." msg;
      exit 2

let diff file_a file_b baseline_dir wall_tol strict_wall json =
  let path_a, path_b =
    match file_b with
    | Some b -> (file_a, b)
    | None -> (Filename.concat baseline_dir "BENCH_obs.json", file_a)
  in
  let a = load path_a in
  let b = load path_b in
  let policy = { Obs.Diff.wall_tol_pct = wall_tol; fail_on_wall = strict_wall } in
  let report = Obs.Diff.run ~policy a b in
  if json then Fmt.pr "%a@." Obs.Json.pp (Obs.Diff.to_json report)
  else begin
    Fmt.pr "A: %s (%s)@.B: %s (%s)@." path_a a.Obs.Baseline.schema path_b b.Obs.Baseline.schema;
    Fmt.pr "%a@." Obs.Diff.pp report
  end;
  exit (Obs.Diff.exit_code report)

let file_a =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE_A" ~doc:"Reference export, or the candidate when FILE_B is omitted.")

let file_b =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"FILE_B" ~doc:"Candidate export (default: FILE_A vs the committed baseline).")

let wall_tol =
  Arg.(
    value
    & opt float 50.0
    & info [ "wall-tol" ] ~docv:"PCT" ~doc:"Wall-clock tolerance band in percent.")

let strict_wall =
  Arg.(value & flag & info [ "strict-wall" ] ~doc:"Treat out-of-band wall-clock deltas as fatal.")

let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead of a table.")

let cmd =
  Cmd.v
    (Cmd.info "cheri_diff"
       ~doc:"Diff two BENCH_obs.json exports (exact architectural counters, banded wall clock)")
    Term.(const diff $ file_a $ file_b $ Cli.baseline $ wall_tol $ strict_wall $ json)

let () = exit (Cmd.eval cmd)
