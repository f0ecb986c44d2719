(* Tests for the multi-compartment request-serving subsystem (lib/serve):
   workload generator determinism and classification, scenario unit
   builds, and the server request paths — served, router-rejected, and
   capability-trap-rejected — in both isolation modes. *)

let default_mix = Serve.Workload.default_mix

(* --- workload ------------------------------------------------------------- *)

let test_workload_deterministic () =
  let gen () =
    Serve.Workload.gen_chunk ~mix:default_mix ~base_seed:7L ~index:3 ~count:512
  in
  Alcotest.(check bool) "same seed, same chunk" true (gen () = gen ());
  let other = Serve.Workload.gen_chunk ~mix:default_mix ~base_seed:7L ~index:4 ~count:512 in
  Alcotest.(check bool) "different index, different chunk" true (gen () <> other)

let test_workload_classification () =
  let reqs = Serve.Workload.gen_chunk ~mix:default_mix ~base_seed:7L ~index:0 ~count:2048 in
  let count e =
    Array.fold_left (fun n r -> if Serve.Workload.expected r = e then n + 1 else n) 0 reqs
  in
  let served = count Serve.Workload.Expect_served in
  let kind = count Serve.Workload.Expect_reject_kind in
  let trap = count Serve.Workload.Expect_reject_trap in
  Alcotest.(check int) "partition" 2048 (served + kind + trap);
  (* ~1/32 malformed, split between the two classes. *)
  Alcotest.(check bool) "some bad kinds" true (kind > 0);
  Alcotest.(check bool) "some lying headers" true (trap > 0);
  Alcotest.(check bool) "mostly well-formed" true (served > 1850);
  Array.iter
    (fun (r : Serve.Workload.request) ->
      Alcotest.(check bool) "actual_len positive" true (r.Serve.Workload.actual_len >= 1);
      Alcotest.(check bool) "actual_len bounded" true
        (r.Serve.Workload.actual_len <= default_mix.Serve.Workload.max_words))
    reqs

let test_workload_no_malformed () =
  let mix = { default_mix with Serve.Workload.malformed_denom = 0 } in
  let reqs = Serve.Workload.gen_chunk ~mix ~base_seed:7L ~index:0 ~count:1024 in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "all well-formed" true
        (Serve.Workload.expected r = Serve.Workload.Expect_served))
    reqs

(* --- scenario unit builds -------------------------------------------------- *)

let test_build_unit_layout () =
  List.iter
    (fun isolation ->
      for w = 0 to 2 do
        let u = Serve.Scenario.build_unit ~isolation w in
        let cbase = Int64.of_int (Serve.Scenario.code_base w) in
        (* The veneer must sit exactly at the unit's text base — that is
           where CCall lands (base of the unsealed code capability). *)
        Alcotest.(check bool)
          (u.Serve.Scenario.name ^ ": text at code base")
          true
          (List.exists (fun (a, _) -> a = cbase) u.Serve.Scenario.segments);
        List.iter
          (fun (addr, bytes) ->
            let ok_text =
              Int64.unsigned_compare addr cbase >= 0
              && Int64.unsigned_compare
                   (Int64.add addr (Int64.of_int (String.length bytes)))
                   (Int64.add cbase (Int64.of_int Serve.Scenario.code_len))
                 <= 0
            in
            let dbase = Int64.of_int (Serve.Scenario.data_base w) in
            let ok_data =
              Int64.unsigned_compare addr dbase >= 0
              && Int64.unsigned_compare
                   (Int64.add addr (Int64.of_int (String.length bytes)))
                   (Int64.add dbase (Int64.of_int Serve.Scenario.data_len))
                 <= 0
            in
            Alcotest.(check bool) "segment within the unit's regions" true (ok_text || ok_data))
          u.Serve.Scenario.segments
      done)
    [ Serve.Scenario.Mono; Serve.Scenario.Compart ]

(* --- the server ------------------------------------------------------------ *)

let request ?(kind = 0) ?(declared = 4) ?(actual = 4) ?(route = 0) ?(seed = 99L) () =
  {
    Serve.Workload.kind;
    declared_len = declared;
    actual_len = actual;
    route;
    payload_seed = seed;
  }

let boot isolation n =
  let s = Serve.Server.create ~isolation ~n () in
  Serve.Server.boot s;
  s

let test_serve_and_isolation_equivalence () =
  (* The same requests through both isolation modes must produce the
     same responses: the compartment boundary is invisible to a correct
     client. *)
  let compart = boot Serve.Scenario.Compart 2 and mono = boot Serve.Scenario.Mono 2 in
  for route = 0 to 3 do
    let req = request ~kind:route ~route ~seed:(Int64.of_int (route * 17)) () in
    let rc, _ = Serve.Server.serve_one compart req in
    let rm, _ = Serve.Server.serve_one mono req in
    (match rc with
    | Serve.Server.Served _ -> ()
    | _ -> Alcotest.fail "compartment request not served");
    Alcotest.(check bool) "responses agree across isolation" true (rc = rm)
  done;
  let k = Serve.Server.kernel compart in
  Alcotest.(check int) "one crossing per request" 4 k.Os.Kernel.ccalls;
  Alcotest.(check int) "every crossing returned" 4 k.Os.Kernel.creturns;
  Alcotest.(check int) "stack drained" 0 (Os.Kernel.trusted_stack_depth k)

let test_reject_bad_kind () =
  let s = boot Serve.Scenario.Compart 2 in
  let r, _ = Serve.Server.serve_one s (request ~kind:9 ()) in
  Alcotest.(check bool) "router bounces it" true (r = Serve.Server.Rejected_kind);
  let k = Serve.Server.kernel s in
  Alcotest.(check int) "no domain crossing" 0 k.Os.Kernel.ccalls

let test_reject_lying_header () =
  (* declared_len > actual_len: the router bounds the payload capability
     to the received words, so the worker's over-read traps inside the
     compartment with a length violation — and the server loop
     survives. *)
  let s = boot Serve.Scenario.Compart 2 in
  let r, _ = Serve.Server.serve_one s (request ~declared:12 ~actual:4 ()) in
  (match r with
  | Serve.Server.Rejected_trap (_, cause) ->
      Alcotest.(check string) "length violation"
        (Cap.Cause.to_string Cap.Cause.Length_violation)
        (Cap.Cause.to_string cause)
  | _ -> Alcotest.fail "lying header not trapped");
  let k = Serve.Server.kernel s in
  Alcotest.(check int) "trap unwound the trusted stack" 0 (Os.Kernel.trusted_stack_depth k);
  (* The server keeps serving after the trap. *)
  match Serve.Server.serve_one s (request ()) with
  | Serve.Server.Served _, _ -> ()
  | _ -> Alcotest.fail "server loop did not survive the trap"

let test_counters_flow () =
  let s = boot Serve.Scenario.Compart 1 in
  let before = Serve.Server.counters s in
  (match Serve.Server.serve_one s (request ()) with
  | Serve.Server.Served _, _ -> ()
  | _ -> Alcotest.fail "request not served");
  let d = Obs.Counters.diff (Serve.Server.counters s) before in
  Alcotest.(check int64) "one ccall" 1L (Obs.Counters.get d Obs.Counters.ccalls);
  Alcotest.(check int64) "one creturn" 1L (Obs.Counters.get d Obs.Counters.creturns);
  Alcotest.(check int64) "one context save" 1L (Obs.Counters.get d Obs.Counters.ctx_saves);
  Alcotest.(check int64) "one context restore" 1L (Obs.Counters.get d Obs.Counters.ctx_restores)

(* The empty-sample guard: percentiles of no observations are 0, and a
   sweep whose every request is malformed (no served latencies anywhere
   in a class) must complete without raising. *)
let test_percentile_empty () =
  Alcotest.(check int) "p50 of nothing" 0 (Serve.Sweep.percentile [||] 0.50);
  Alcotest.(check int) "p99 of nothing" 0 (Serve.Sweep.percentile [||] 0.99);
  Alcotest.(check int) "p50 of one" 7 (Serve.Sweep.percentile [| 7 |] 0.50)

let test_all_malformed_sweep () =
  let cfg =
    {
      Serve.Sweep.default_cfg with
      Serve.Sweep.requests = 256;
      mix = { Serve.Workload.default_mix with Serve.Workload.malformed_denom = 1 };
      ns = [ 1 ];
      no_wall = true;
    }
  in
  let r = Serve.Sweep.run cfg in
  Alcotest.(check bool) "digests match" true r.Serve.Sweep.digests_match;
  List.iter
    (fun (pr : Serve.Sweep.point_result) ->
      Alcotest.(check int) "nothing served" 0 pr.Serve.Sweep.served;
      Alcotest.(check int) "all rejected" 256
        (pr.Serve.Sweep.rejected_kind + pr.Serve.Sweep.rejected_trap))
    r.Serve.Sweep.points;
  (* The report renders (percentiles over empty served classes included)
     without raising. *)
  ignore (Obs.Json.to_string (Serve.Sweep.to_json r));
  ignore (Fmt.str "%a" Serve.Sweep.pp_result r)

(* Attaching the trace collector and the counter series must not move a
   single architectural number. *)
let test_trace_zero_perturbation () =
  let base =
    {
      Serve.Sweep.default_cfg with
      Serve.Sweep.requests = 128;
      ns = [ 2 ];
      no_wall = true;
    }
  in
  let traced =
    {
      base with
      Serve.Sweep.trace =
        Some { Serve.Sweep.stride = 4; capacity = 1 lsl 12; series = Some 10_000 };
    }
  in
  let plain = Serve.Sweep.run base and r = Serve.Sweep.run traced in
  Alcotest.(check string) "report identical"
    (Obs.Json.to_string (Serve.Sweep.to_json plain))
    (Obs.Json.to_string (Serve.Sweep.to_json r));
  List.iter
    (fun (pr : Serve.Sweep.point_result) ->
      match pr.Serve.Sweep.trace with
      | None -> Alcotest.fail "traced sweep lost its collector"
      | Some tr -> Alcotest.(check bool) "events recorded" true (Obs.Trace.recorded tr > 0))
    r.Serve.Sweep.points

(* The warm-server pool's whole contract: a sweep served by rewinding
   pooled servers ([Server.reset]) must produce byte-identical exports
   to one that cold-boots every chunk — the full cheri-serve report,
   the obs-schema export, the trace digest, and the Chrome document
   (responses, latencies, counters, series, and trace events all ride
   in those four).  6000 requests = two chunks per point, so the second
   chunk of each point really reuses a server the first chunk dirtied. *)
let test_warm_cold_bit_identical () =
  let cfg cold =
    {
      Serve.Sweep.default_cfg with
      Serve.Sweep.requests = 6000;
      ns = [ 2 ];
      no_wall = true;
      cold;
      trace = Some { Serve.Sweep.stride = 8; capacity = 1 lsl 14; series = Some 2000 };
    }
  in
  let rc = Serve.Sweep.run (cfg true) and rw = Serve.Sweep.run (cfg false) in
  Alcotest.(check string) "cheri-serve report identical"
    (Obs.Json.to_string (Serve.Sweep.to_json rc))
    (Obs.Json.to_string (Serve.Sweep.to_json rw));
  Alcotest.(check string) "obs export identical"
    (Obs.Json.to_string (Obs.Export.summary (Serve.Sweep.obs_entries rc)))
    (Obs.Json.to_string (Obs.Export.summary (Serve.Sweep.obs_entries rw)));
  Alcotest.(check string) "trace digest identical"
    (Obs.Json.to_string (Serve.Sweep.trace_obs_json rc))
    (Obs.Json.to_string (Serve.Sweep.trace_obs_json rw));
  Alcotest.(check string) "chrome trace identical"
    (Obs.Json.to_string (Serve.Sweep.chrome_json rc))
    (Obs.Json.to_string (Serve.Sweep.chrome_json rw))

(* [serve_one] routes with [route land (n - 1)]: a non-power-of-two
   worker count would silently misroute, so [create] must refuse it. *)
let test_non_power_of_two_rejected () =
  List.iter
    (fun n ->
      match Serve.Server.create ~isolation:Serve.Scenario.Compart ~n () with
      | _ -> Alcotest.failf "n=%d accepted" n
      | exception Invalid_argument _ -> ())
    [ 3; 5; 6; 7 ];
  match Serve.Server.reset (Serve.Server.create ~isolation:Serve.Scenario.Mono ~n:1 ()) with
  | () -> Alcotest.fail "reset of a never-booted server accepted"
  | exception Invalid_argument _ -> ()

(* The per-request-class histograms partition the stream: the class
   totals sum to the request count, and rejected cells match the
   tallies. *)
let test_class_hists_partition () =
  let cfg =
    { Serve.Sweep.default_cfg with Serve.Sweep.requests = 512; ns = [ 2 ]; no_wall = true }
  in
  let r = Serve.Sweep.run cfg in
  List.iter
    (fun (pr : Serve.Sweep.point_result) ->
      let total =
        Array.fold_left (fun acc h -> acc + Obs.Hist.total h) 0 pr.Serve.Sweep.class_hists
      in
      Alcotest.(check int) "class cells partition the stream" pr.Serve.Sweep.requests total;
      let rejected =
        Array.to_list pr.Serve.Sweep.class_hists
        |> List.filteri (fun i _ -> i mod 2 = 1)
        |> List.fold_left (fun acc h -> acc + Obs.Hist.total h) 0
      in
      Alcotest.(check int) "rejected cells match the tallies"
        (pr.Serve.Sweep.rejected_kind + pr.Serve.Sweep.rejected_trap + pr.Serve.Sweep.abnormal)
        rejected;
      let comp_total =
        Array.fold_left (fun acc h -> acc + Obs.Hist.total h) 0 pr.Serve.Sweep.comp_hists
      in
      Alcotest.(check int) "compartment cells cover all routed requests"
        (pr.Serve.Sweep.requests - pr.Serve.Sweep.rejected_kind)
        comp_total)
    r.Serve.Sweep.points

(* --- counter classes through the exports ------------------------------ *)

(* A small traced compart sweep, shared by the tests below. *)
let small_sweep =
  lazy
    (Serve.Sweep.run
       {
         Serve.Sweep.default_cfg with
         Serve.Sweep.requests = 128;
         ns = [ 2 ];
         no_wall = true;
         trace = Some { Serve.Sweep.stride = 4; capacity = 1 lsl 12; series = Some 10_000 };
       })

(* The sweep's obs export with counter slot [i] of the compart entry
   bumped by one. *)
let bumped_entries r i =
  List.map
    (fun (e : Obs.Export.entry) ->
      if e.Obs.Export.mode <> "compart" then e
      else
        let c = Obs.Counters.copy e.Obs.Export.counters in
        Obs.Counters.incr c i;
        { e with Obs.Export.counters = c })
    (Serve.Sweep.obs_entries r)

let diff_ok a b = Obs.Diff.ok (Obs.Diff.run (Obs.Baseline.of_entries a) (Obs.Baseline.of_entries b))

(* One extra CReturn is a regression: the kernel crossing counters are
   architectural, so the differ compares them exactly. *)
let test_creturn_delta_caught () =
  let r = Lazy.force small_sweep in
  let live = Serve.Sweep.obs_entries r in
  List.iter
    (fun (e : Obs.Export.entry) ->
      if e.Obs.Export.mode = "compart" then
        Alcotest.(check bool) "compart sweep returns across domains" true
          (Obs.Counters.get e.Obs.Export.counters Obs.Counters.creturns > 0L))
    live;
  Alcotest.(check bool) "live == live" true (diff_ok live live);
  Alcotest.(check bool) "creturns + 1 flagged" false
    (diff_ok live (bumped_entries r Obs.Counters.creturns))

(* Every counter index, one rule: bumping the slot moves the diff verdict,
   the cheri-serve JSON, and the sanitized series iff the counter's class
   is Architectural. *)
let test_counter_classes_table () =
  let r = Lazy.force small_sweep in
  let live = Serve.Sweep.obs_entries r in
  let report = Obs.Json.to_string (Serve.Sweep.to_json r) in
  let series_bytes s =
    String.concat ";"
      (List.map
         (fun (smp : Obs.Series.sample) -> Obs.Json.to_string (Obs.Counters.to_json smp.Obs.Series.delta))
         (Obs.Series.samples s))
  in
  let series =
    match (List.hd r.Serve.Sweep.points).Serve.Sweep.series with
    | Some s -> s
    | None -> Alcotest.fail "traced sweep lost its series"
  in
  Alcotest.(check bool) "series sampled" true (Obs.Series.count series > 0);
  for i = 0 to Obs.Counters.count - 1 do
    let arch = Obs.Counters.is_architectural i in
    let name = Obs.Counters.names.(i) in
    Alcotest.(check bool) (name ^ ": diff ok iff not architectural") (not arch)
      (diff_ok live (bumped_entries r i));
    let bumped_report =
      let points =
        List.map
          (fun (pr : Serve.Sweep.point_result) ->
            let c = Obs.Counters.copy pr.Serve.Sweep.counters in
            Obs.Counters.incr c i;
            { pr with Serve.Sweep.counters = c })
          r.Serve.Sweep.points
      in
      Obs.Json.to_string (Serve.Sweep.to_json { r with Serve.Sweep.points })
    in
    Alcotest.(check bool) (name ^ ": serve JSON moves iff architectural") arch
      (not (String.equal report bumped_report));
    let s = Obs.Series.copy series in
    List.iter (fun (smp : Obs.Series.sample) -> Obs.Counters.incr smp.Obs.Series.delta i)
      (Obs.Series.samples s);
    Obs.Series.sanitize s;
    Alcotest.(check bool) (name ^ ": sanitized series moves iff architectural") arch
      (not (String.equal (series_bytes series) (series_bytes s)))
  done

let suites =
  [
    ( "serve-workload",
      [
        Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
        Alcotest.test_case "classification" `Quick test_workload_classification;
        Alcotest.test_case "malformed off" `Quick test_workload_no_malformed;
      ] );
    ( "serve-server",
      [
        Alcotest.test_case "unit layout" `Quick test_build_unit_layout;
        Alcotest.test_case "isolation equivalence" `Quick test_serve_and_isolation_equivalence;
        Alcotest.test_case "reject bad kind" `Quick test_reject_bad_kind;
        Alcotest.test_case "reject lying header" `Quick test_reject_lying_header;
        Alcotest.test_case "counters flow" `Quick test_counters_flow;
      ] );
    ( "serve-sweep",
      [
        Alcotest.test_case "percentile of empty" `Quick test_percentile_empty;
        Alcotest.test_case "all-malformed sweep" `Quick test_all_malformed_sweep;
        Alcotest.test_case "trace zero perturbation" `Quick test_trace_zero_perturbation;
        Alcotest.test_case "class hists partition" `Quick test_class_hists_partition;
        Alcotest.test_case "warm = cold bit-identical" `Quick test_warm_cold_bit_identical;
        Alcotest.test_case "non-power-of-two rejected" `Quick test_non_power_of_two_rejected;
        Alcotest.test_case "creturn delta caught" `Quick test_creturn_delta_caught;
        Alcotest.test_case "counter classes table" `Quick test_counter_classes_table;
      ] );
  ]
