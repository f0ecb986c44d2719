(* Parallel-determinism check: the `--jobs N` Domain-pool fan-out must be
   invisible in the output.

   Two guarantees are asserted, both on the smoke export set (treeadd
   param 6 x three pointer modes — the same Exp.Obs_bench definition
   `bench --json` and regress-smoke use):

   1. Byte identity: the serialized export produced with jobs=4 equals
      the one produced sequentially, byte for byte.  Both runs disable
      wall-clock measurement (`~wall:false`, the library form of
      `--no-wall`), because host timing is the one thing that genuinely
      differs run to run; everything else — entry order, every counter,
      every span — must not.

   2. Architectural fidelity: the jobs=4 run also diffs clean against
      the committed `bench/baselines/SMOKE_obs.json` under the
      exact-match policy, i.e. parallel runs reproduce the same oracle
      counters as the sequential baseline (the committed file's /2
      schema predates per-run sim_mips; host-timing fields are banded or
      skipped, never exact — so this passes on any host). *)

let jobs = 4

(* The fuzz campaigns make the same promise: the 128-seed shard grid is
   fixed at absolute indices and shard results merge in seed order, so
   the export must not depend on the domain count — for instruction
   programs and for kernel scenarios alike. *)
let check_fuzz_determinism () =
  List.iter
    (fun (name, entry) ->
      let bytes jobs = Obs.Json.to_string (Obs.Export.summary [ entry jobs ]) in
      let seq = bytes 1 and par = bytes jobs in
      if not (String.equal seq par) then begin
        Printf.eprintf
          "par-determ: %s fuzz jobs=%d export differs from sequential\n--- sequential ---\n%s\n--- \
           jobs=%d ---\n%s\n"
          name jobs seq jobs par;
        exit 1
      end;
      Printf.printf "par-determ: %s fuzz jobs=%d export is byte-identical to sequential (%d bytes)\n"
        name jobs (String.length seq))
    [
      ( "lockstep",
        fun jobs ->
          Fuzz.Campaign.export_entry
            (Fuzz.Campaign.run ~jobs ~wall:false
               { Fuzz.Campaign.default with Fuzz.Campaign.programs = 300 }) );
      ( "kernel",
        fun jobs ->
          Fuzz.Kfuzz.export_entry
            (Fuzz.Kfuzz.run ~jobs ~wall:false { Fuzz.Kfuzz.default with Fuzz.Kfuzz.programs = 300 })
      );
    ]

let () =
  check_fuzz_determinism ();
  let seq = Exp.Obs_bench.smoke_entries ~jobs:1 ~wall:false () in
  let par = Exp.Obs_bench.smoke_entries ~jobs ~wall:false () in
  let seq_json = Obs.Json.to_string (Obs.Export.summary seq) in
  let par_json = Obs.Json.to_string (Obs.Export.summary par) in
  if not (String.equal seq_json par_json) then begin
    Printf.eprintf
      "par-determ: jobs=%d export differs from sequential\n--- sequential ---\n%s\n--- jobs=%d \
       ---\n%s\n"
      jobs seq_json jobs par_json;
    exit 1
  end;
  Printf.printf "par-determ: jobs=%d export is byte-identical to sequential (%d bytes)\n" jobs
    (String.length seq_json);
  let baseline_path =
    match Sys.argv with [| _; p |] -> p | _ -> "bench/baselines/SMOKE_obs.json"
  in
  match Obs.Baseline.load baseline_path with
  | Error msg ->
      Printf.eprintf "par-determ: %s\n" msg;
      exit 2
  | Ok committed ->
      let report = Obs.Diff.run committed (Obs.Baseline.of_entries par) in
      Fmt.pr "par-determ: jobs=%d vs %s@.%a@." jobs baseline_path Obs.Diff.pp report;
      exit (Obs.Diff.exit_code report)
