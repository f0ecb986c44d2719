(* Machine-readable bench export: the `BENCH_obs.json` summary that
   `bench/main.exe --json` writes, establishing the repo's perf
   trajectory (interpreter instructions/second, per-benchmark simulated
   cycle totals, and the full counter file per run) so future PRs have a
   baseline to diff against.

   Schema (documented in docs/OBSERVABILITY.md):

     { "schema": "cheri-obs-bench/5",
       "interp_instr_per_s": <host-side interpreter throughput>,
       "benchmarks": [
         { "bench": ..., "mode": ..., "param": ...,
           "cycles": ..., "instret": ..., "wall_s": ..., "sim_mips": ...,
           "counters": { <counter name>: <int>, ... },
           "spans": { <span name>: { "instret": ..., "cycles": ... }, ... } } ] }

   `sim_mips` is simulated millions of instructions per host second
   (instret / wall_s / 1e6; 0.0 when the run's wall clock was not
   measured).  Host-timing fields (`wall_s`, `sim_mips`,
   `interp_instr_per_s`) are only ever banded by the diff harness, never
   compared exactly.  The `counters` object carries every counter except
   the [Config]-class ones ([Counters.class_of]); the diff harness
   compares its [Architectural] counters exactly and skips the [Host]
   ones. *)

type entry = {
  bench : string;
  mode : string;
  param : int;
  wall_s : float; (* host seconds spent simulating this run *)
  counters : Counters.t;
  spans : (string * Counters.t) list;
}

let schema_version = "cheri-obs-bench/5"

(* The trace export rides the same file shape (schema / benchmarks /
   counters / spans) with its own schema tag: spans carry per-request-
   class and per-compartment latency histogram fields instead of
   instret/cycles pairs.  [Baseline] loads it like any bench file — the
   span decoder accepts arbitrary integer fields — and [Diff] pins the
   fields exactly.  Written by Serve.Sweep.trace_obs_json. *)
let schema_trace = "cheri-obs-trace/1"

(* Simulated MIPS of one run: how many millions of simulated instructions
   the interpreter retired per host second.  0.0 when the wall clock was
   not measured (deterministic-output mode). *)
let sim_mips e =
  if e.wall_s <= 0.0 then 0.0
  else Int64.to_float (Counters.get e.counters Counters.instret) /. e.wall_s /. 1e6

(* The counter fields a bench export carries: every counter but the
   [Config] class.  Shared with [Baseline.of_entries] so live runs and
   loaded files compare over exactly the same keys. *)
let counter_fields (c : Counters.t) =
  List.filteri (fun i _ -> Counters.class_of i <> Counters.Config) (Counters.to_assoc c)

let entry_to_json e =
  Json.Obj
    [
      ("bench", Json.String e.bench);
      ("mode", Json.String e.mode);
      ("param", Json.Int (Int64.of_int e.param));
      ("cycles", Json.Int (Counters.get e.counters Counters.cycles));
      ("instret", Json.Int (Counters.get e.counters Counters.instret));
      ("wall_s", Json.Float e.wall_s);
      ("sim_mips", Json.Float (sim_mips e));
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (counter_fields e.counters)));
      ( "spans",
        Json.Obj
          (List.map
             (fun (name, c) ->
               ( name,
                 Json.Obj
                   [
                     ("instret", Json.Int (Counters.get c Counters.instret));
                     ("cycles", Json.Int (Counters.get c Counters.cycles));
                   ] ))
             e.spans) );
    ]

(* Aggregate interpreter throughput over all entries: total simulated
   instructions per host second — the number the perf trajectory tracks. *)
let interp_instr_per_s entries =
  let instrs =
    List.fold_left
      (fun acc e -> Int64.add acc (Counters.get e.counters Counters.instret))
      0L entries
  in
  let wall = List.fold_left (fun acc e -> acc +. e.wall_s) 0.0 entries in
  if wall <= 0.0 then 0.0 else Int64.to_float instrs /. wall

let summary entries =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("interp_instr_per_s", Json.Float (interp_instr_per_s entries));
      ("benchmarks", Json.List (List.map entry_to_json entries));
    ]

let write_file path entries =
  let oc = open_out path in
  output_string oc (Json.to_string (summary entries));
  output_char oc '\n';
  close_out oc
