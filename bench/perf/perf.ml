(* The host-cost benchmark.

     perf.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
     perf.exe compare BASE_DIR CHANGE_DIR
     perf.exe smoke

   [run] measures one workload in this process on one domain and prints
   every metric as `name value unit`, then one JSON result line.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   timed phase is split into an untraced and a traced half, ablations
   follow, and the metrics are the per-layer ones (plus a self-time
   table and a Chrome trace in perf-trace/).  The exit status is
   1 when any operation failed a correctness check.  README.md documents
   the workloads and metrics. *)

let workloads = [ "olden-timed"; "olden-functional"; "serve-n8"; "fuzz-lockstep" ]

let run_workload (ctx : Kit.ctx) = function
  | "olden-timed" -> Kit.run ctx (Wl_olden.workload ~smoke:ctx.Kit.smoke ~timing:true)
  | "olden-functional" -> Kit.run ctx (Wl_olden.workload ~smoke:ctx.Kit.smoke ~timing:false)
  | "serve-n8" -> Kit.run ctx (Wl_serve.workload ~smoke:ctx.Kit.smoke)
  | "fuzz-lockstep" -> Kit.run ctx (Wl_fuzz.workload ~smoke:ctx.Kit.smoke ~seed:ctx.Kit.seed)
  | w -> invalid_arg ("unknown workload " ^ w)

let print_row (r : Kit.row) = Printf.printf "%-32s %.10g %s\n" r.Kit.name r.Kit.value r.Kit.unit

let result_json (res : Kit.result) rows =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (res.Kit.failed = 0));
      ("attempted", Obs.Json.Int (Int64.of_int res.Kit.attempted));
      ("failed", Obs.Json.Int (Int64.of_int res.Kit.failed));
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (r : Kit.row) ->
               (r.Kit.name, Obs.Json.Obj [ ("value", Obs.Json.Float r.Kit.value); ("unit", Obs.Json.String r.Kit.unit) ]))
             rows) );
    ]

let run ~workload ~seed ~seconds ~trace =
  if not (List.mem workload workloads) then begin
    Printf.eprintf "perf: unknown workload %S (one of %s)\n" workload (String.concat ", " workloads);
    exit 2
  end;
  let ctx = { Kit.seed; budget_ns = int_of_float (seconds *. 1e9); smoke = false; trace } in
  let res = run_workload ctx workload in
  Printf.printf "workload %s\nseed %d\nsim_digest 0x%016Lx\n" workload seed res.Kit.main.Kit.digest;
  let rows =
    if not trace then
      Kit.
        [
          row "sim_mips" "Minsn/s" res.main.sim_mips;
          row "items_per_s" "1/s" res.main.items_per_s;
          row "setup_s" "s" res.setup_s;
          row "peak_rss_mb" "MiB" res.main.rss_mb;
        ]
    else res.Kit.layers
  in
  if not trace then
    print_row (Kit.row "machine.minor_words_per_insn" "words" res.Kit.main.Kit.words_per_insn);
  List.iter print_row rows;
  if trace then begin
    List.iter print_row res.Kit.extras;
    let dir = "perf-trace" in
    let path = Filename.concat dir (workload ^ ".json") in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Option.iter
      (fun t ->
        Fmt.pr "%a@." Tracer.pp_table t;
        Tracer.write_chrome t path)
      res.Kit.tracer;
    Printf.printf "chrome trace: %s\n" path
  end;
  print_endline (Obs.Json.to_string (result_json res rows));
  if res.Kit.failed > 0 then exit 1

(* Every workload at toy size through both passes and the ablations:
   a fast check that the benchmark still compiles against, and agrees
   with, the simulator's public API. *)
let smoke () =
  let failed =
    List.fold_left
      (fun acc w ->
        let res = run_workload { Kit.seed = 0; budget_ns = 0; smoke = true; trace = true } w in
        Printf.printf "%-18s attempted %d failed %d sim_digest 0x%016Lx\n" w res.Kit.attempted res.Kit.failed
          res.Kit.main.Kit.digest;
        acc + res.Kit.failed)
      0 workloads
  in
  if failed > 0 then exit 1

let usage =
  "perf.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
   perf.exe compare BASE_DIR CHANGE_DIR\n\
   perf.exe smoke"

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest ->
      let workload = ref "" and seed = ref 0 and seconds = ref 20.0 and trace = ref 0 in
      let specs =
        [
          ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
          ("--seed", Arg.Set_int seed, "N input seed (the fuzz base seed)");
          ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
          ("--trace", Arg.Set_int trace, "0|1 1 = per-layer traced run");
        ]
      in
      (try Arg.parse_argv (Array.of_list (Sys.argv.(0) :: rest)) specs (fun a -> raise (Arg.Bad a)) usage
       with Arg.Bad m | Arg.Help m ->
         prerr_string m;
         exit 2);
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace <> 0)
  | [ _; "compare"; base; change ] -> Compare.run base change
  | [ _; "smoke" ] -> smoke ()
  | _ ->
      prerr_endline usage;
      exit 2
