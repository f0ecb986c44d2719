(* Tests for lib/obs, the observability subsystem: the JSON emitter, the
   counter file and its arithmetic, the event bus, the sampling profiler,
   and — the properties the subsystem lives or dies by — that the
   counters agree exactly with the machine and memory-hierarchy internals
   they mirror, that everything is bit-for-bit deterministic, and that
   attaching the hooks does not perturb the architectural execution. *)

let counters = Alcotest.testable Obs.Counters.pp Obs.Counters.equal

(* --- JSON emitter ------------------------------------------------------- *)

let test_json_escaping () =
  let open Obs.Json in
  Alcotest.(check string)
    "string escaping" {|"a\"b\\c\nd\te\u0001"|}
    (to_string (String "a\"b\\c\nd\te\001"));
  Alcotest.(check string)
    "nested structure" {|{"k":[1,true,null,"s"],"f":1.5}|}
    (to_string (Obj [ ("k", List [ Int 1L; Bool true; Null; String "s" ]); ("f", Float 1.5) ]));
  Alcotest.(check string) "nan degrades to null" "null" (to_string (Float Float.nan));
  Alcotest.(check string) "inf degrades to null" "null" (to_string (Float Float.infinity));
  Alcotest.(check string)
    "int64 beyond 2^53 stays exact" "9007199254740993"
    (to_string (Int 9007199254740993L))

(* --- JSON parser ---------------------------------------------------------- *)

let json = Alcotest.testable Obs.Json.pp ( = )

let parse_ok s =
  match Obs.Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let test_json_parse () =
  let open Obs.Json in
  Alcotest.check json "scalars"
    (List [ Null; Bool true; Bool false; Int 42L; Int (-17L); Float 1.5; String "hi" ])
    (parse_ok {| [null, true, false, 42, -17, 1.5, "hi"] |});
  Alcotest.check json "nested object"
    (Obj [ ("a", List [ Int 1L ]); ("b", Obj [ ("c", String "d") ]) ])
    (parse_ok {|{"a":[1],"b":{"c":"d"}}|});
  Alcotest.check json "empty containers" (List [ Obj []; List [] ]) (parse_ok "[{}, []]");
  Alcotest.check json "string escapes"
    (String "a\"b\\c\nd\te/")
    (parse_ok {|"a\"b\\c\nd\te\/"|});
  Alcotest.check json "unicode escapes incl. surrogate pair"
    (String "A\xc2\xa2\xe2\x82\xac\xf0\x9d\x84\x9e")
    (parse_ok "\"A\\u00a2\\u20ac\\ud834\\udd1e\"");
  Alcotest.check json "max int64 stays exact"
    (Int Int64.max_int)
    (parse_ok "9223372036854775807");
  Alcotest.check json "min int64 stays exact"
    (Int Int64.min_int)
    (parse_ok "-9223372036854775808");
  Alcotest.check json "beyond int64 degrades to float"
    (Float 1e19)
    (parse_ok "10000000000000000000");
  Alcotest.check json "exponent floats" (Float 2.5e3) (parse_ok "2.5e3");
  List.iter
    (fun bad ->
      match Obs.Json.of_string bad with
      | Ok v -> Alcotest.failf "parse %S unexpectedly succeeded: %s" bad (Obs.Json.to_string v)
      | Error _ -> ())
    [ ""; "{"; {|{"a":}|}; "[1,]"; "nul"; {|"unterminated|}; "1 2"; {|"\q"|}; {|"\ud834"|} ]

(* Emit -> parse is the identity on every value the exporters produce. *)
let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("neg", Int (-123456789L));
        ("big", Int 9007199254740993L);
        ("min", Int Int64.min_int);
        ("f", Float 0.0625);
        ("s", String "tab\t\"quote\"\x01");
        ("l", List [ Null; Bool true; Obj [ ("x", Int 1L) ] ]);
      ]
  in
  Alcotest.check json "roundtrip" v (parse_ok (to_string v));
  (* Non-integral floats round-trip through %.12g; integral ones come
     back as Int (the emitter prints them without a point). *)
  List.iter
    (fun f ->
      Alcotest.check json
        (Printf.sprintf "float %g roundtrips" f)
        (Float f)
        (parse_ok (to_string (Float f))))
    [ 0.5; 1.5; 0.0625; 1e-3 ];
  Alcotest.check json "integral float parses as Int" (Int 100L) (parse_ok (to_string (Float 100.0)))

(* --- counter arithmetic -------------------------------------------------- *)

let test_counter_arithmetic () =
  let a = Obs.Counters.create () and b = Obs.Counters.create () in
  Obs.Counters.set a Obs.Counters.instret 100L;
  Obs.Counters.set a Obs.Counters.cycles 250L;
  Obs.Counters.set b Obs.Counters.instret 30L;
  Obs.Counters.set b Obs.Counters.cycles 50L;
  let d = Obs.Counters.diff a b in
  Alcotest.(check int64) "diff instret" 70L (Obs.Counters.get d Obs.Counters.instret);
  Alcotest.(check int64) "diff cycles" 200L (Obs.Counters.get d Obs.Counters.cycles);
  Obs.Counters.accumulate b d;
  Alcotest.check counters "before + diff = after" a b;
  Alcotest.(check int)
    "names cover every index" Obs.Counters.count
    (List.length (Obs.Counters.to_assoc a));
  let c = Obs.Counters.copy a in
  Alcotest.check counters "copy equals source" a c;
  Obs.Counters.incr c Obs.Counters.instret;
  Alcotest.(check bool) "copy is independent" false (Obs.Counters.equal a c);
  Obs.Counters.reset c;
  Alcotest.check counters "reset is all zero" (Obs.Counters.create ()) c

let test_counter_ratios () =
  let c = Obs.Counters.create () in
  Obs.Counters.set c Obs.Counters.l1d_hits 75L;
  Obs.Counters.set c Obs.Counters.l1d_misses 25L;
  Alcotest.(check (float 1e-9))
    "miss rate" 25.0
    (Obs.Counters.miss_rate_pct c ~hits:Obs.Counters.l1d_hits ~misses:Obs.Counters.l1d_misses);
  Alcotest.(check (float 1e-9)) "zero denominator" 0.0 (Obs.Counters.ratio_pct 5L 0L)

(* --- event bus ------------------------------------------------------------ *)

let test_event_bus () =
  let bus = Obs.Event.create () in
  let buf = Buffer.create 256 in
  let seen = ref [] in
  (* seq advances even with no sinks attached ... *)
  Obs.Event.emit bus ~kind:"early" [];
  Obs.Event.subscribe bus (Obs.Event.jsonl_sink buf);
  Obs.Event.subscribe bus (fun e -> seen := e :: !seen);
  Obs.Event.emit bus ~kind:"span-enter" ~name:"alloc" [];
  Obs.Event.emit bus ~kind:"alloc" [ ("bytes", Obs.Json.Int 64L) ];
  let lines =
    String.split_on_char '\n' (Buffer.contents buf) |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one JSONL line per event" 2 (List.length lines);
  Alcotest.(check string)
    "JSONL shape" {|{"seq":1,"kind":"span-enter","name":"alloc"}|} (List.hd lines);
  (* ... so sinks subscribed later still see a total order. *)
  Alcotest.(check (list int))
    "sequence numbers" [ 2; 1 ]
    (List.map (fun (e : Obs.Event.t) -> e.Obs.Event.seq) !seen)

(* --- sampling profiler ----------------------------------------------------- *)

let test_profile_sampling () =
  let p = Obs.Profile.create ~period:10 () in
  for i = 1 to 100 do
    ignore (Obs.Profile.step p (Int64.of_int (0x1000 + (i mod 3))))
  done;
  Alcotest.(check int) "100 steps / period 10 = 10 samples" 10 (Obs.Profile.total_samples p);
  let top = Obs.Profile.top p ~n:5 in
  Alcotest.(check int) "three distinct pcs" 3 (List.length top);
  Alcotest.(check int)
    "samples sum to total" 10
    (List.fold_left (fun acc (_, n) -> acc + n) 0 top);
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Profile.create: period must be positive") (fun () ->
      ignore (Obs.Profile.create ~period:0 ()))

let test_profile_stacks () =
  let p = Obs.Profile.create ~period:1 () in
  Obs.Profile.call p 0x100L;
  Obs.Profile.call p 0x200L;
  ignore (Obs.Profile.step p 0x204L);
  Obs.Profile.ret p;
  ignore (Obs.Profile.step p 0x104L);
  Obs.Profile.ret p;
  Obs.Profile.ret p (* unbalanced return is ignored *);
  ignore (Obs.Profile.step p 0x8L);
  let resolve pc = match pc with 0x100L -> "f" | 0x200L -> "g" | _ -> "?" in
  Alcotest.(check (list string))
    "collapsed stacks" [ "all 1"; "all;f 1"; "all;f;g 1" ]
    (Obs.Profile.collapsed ~resolve p)

(* --- log2 histograms -------------------------------------------------------- *)

let test_hist () =
  let open Obs.Hist in
  Alcotest.(check int) "bucket of 0" 0 (bucket_of 0L);
  Alcotest.(check int) "bucket of 1" 1 (bucket_of 1L);
  Alcotest.(check int) "bucket of 7" 3 (bucket_of 7L);
  Alcotest.(check int) "bucket of 8" 4 (bucket_of 8L);
  Alcotest.(check int) "bucket of max_int64" 63 (bucket_of Int64.max_int);
  Alcotest.(check (pair int64 int64)) "bounds of bucket 0" (0L, 1L) (bucket_bounds 0);
  Alcotest.(check (pair int64 int64)) "bounds of bucket 4" (8L, 16L) (bucket_bounds 4);
  let h = create ~name:"t" () in
  Alcotest.(check int) "empty total" 0 (total h);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (mean h);
  Alcotest.(check int64) "empty quantile" 0L (quantile h 0.99);
  List.iter (observe_int h) [ 0; 1; 3; 8; 8; 100 ];
  Alcotest.(check int) "total counts observations" 6 (total h);
  Alcotest.(check (float 1e-9)) "mean" 20.0 (mean h);
  Alcotest.(check (list (pair int int)))
    "nonempty buckets" [ (0, 1); (1, 1); (2, 1); (4, 2); (7, 1) ]
    (nonempty h);
  Alcotest.(check int64) "median is the [2,4) bucket's upper bound" 4L (quantile h 0.5);
  Alcotest.(check int64) "p100 clamps to the observed max" 100L (quantile h 1.0);
  let h2 = create ~name:"t2" () in
  List.iter (observe_int h2) [ 2; 1000 ];
  merge h h2;
  Alcotest.(check int) "merge adds totals" 8 (total h);
  Alcotest.(check int64) "merge tracks max" 1000L (quantile h 1.0);
  (* negative observations clamp to zero rather than corrupting buckets *)
  observe h (-5L);
  Alcotest.(check (list (pair int int)))
    "negative clamps to bucket 0"
    [ (0, 2); (1, 1); (2, 2); (4, 2); (7, 1); (10, 1) ]
    (nonempty h);
  (match to_json h with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool) "json has buckets" true (List.mem_assoc "buckets" fields)
  | _ -> Alcotest.fail "hist json is not an object")

(* --- counters vs machine & hierarchy internals ------------------------------ *)

let loop_program =
  {|
main:
  li $t0, 50
loop:
  sd $t0, 0($sp)
  ld $t1, 0($sp)
  daddiu $t0, $t0, -1
  bgtz $t0, loop
  li $v0, 1
  li $a0, 0
  syscall
|}

let test_counters_match_machine () =
  let m = Machine.create () in
  let k = Os.Kernel.attach m in
  let r, _ = Os.Kernel.run_program k loop_program in
  Alcotest.(check int) "clean exit" 0 (Outcome.exited r);
  let c = Os.Kernel.read_counters k in
  let get = Obs.Counters.get c in
  Alcotest.(check int64)
    "instret matches machine" (Int64.of_int m.Machine.instret) (get Obs.Counters.instret);
  Alcotest.(check int64)
    "cycles match machine" (Int64.of_int m.Machine.cycles) (get Obs.Counters.cycles);
  Alcotest.(check int64)
    "stores match machine" (Int64.of_int m.Machine.stores) (get Obs.Counters.retired_stores);
  Alcotest.(check int64)
    "kernel entries match machine" (Int64.of_int m.Machine.kernel_entries)
    (get Obs.Counters.kernel_entries);
  let hier = m.Machine.hier in
  Alcotest.(check int)
    "l1d hits+misses match hierarchy"
    (hier.Mem.Hierarchy.l1d.Mem.Cache.hits + hier.Mem.Hierarchy.l1d.Mem.Cache.misses)
    (Int64.to_int (Int64.add (get Obs.Counters.l1d_hits) (get Obs.Counters.l1d_misses)));
  Alcotest.(check int)
    "l1i hits+misses match hierarchy"
    (hier.Mem.Hierarchy.l1i.Mem.Cache.hits + hier.Mem.Hierarchy.l1i.Mem.Cache.misses)
    (Int64.to_int (Int64.add (get Obs.Counters.l1i_hits) (get Obs.Counters.l1i_misses)));
  Alcotest.(check int)
    "tlb hits match hierarchy" hier.Mem.Hierarchy.tlb.Mem.Tlb.hits
    (Int64.to_int (get Obs.Counters.tlb_hits));
  Alcotest.(check int)
    "loads match hierarchy" hier.Mem.Hierarchy.loads (Int64.to_int (get Obs.Counters.loads));
  Alcotest.(check bool)
    "instret is positive" true
    (Int64.compare (get Obs.Counters.instret) 0L > 0)

(* --- the benchmark harness ---------------------------------------------------- *)

let bench_result ?probe ?bus () =
  let source = List.assoc "treeadd" Olden.Minic_src.all in
  Exp.Bench_run.run ?probe ?bus ~bench:"treeadd" ~mode:Minic.Layout.Cheri ~param:6 source

let test_bench_counters_consistent () =
  let r = bench_result () in
  Alcotest.(check int) "clean exit" 0 r.Exp.Bench_run.exit_code;
  let get = Obs.Counters.get r.Exp.Bench_run.counters in
  Alcotest.(check int64) "result.instrs is the counter" r.Exp.Bench_run.instrs
    (get Obs.Counters.instret);
  Alcotest.(check int64) "result.cycles is the counter" r.Exp.Bench_run.cycles
    (get Obs.Counters.cycles);
  (* The fig4 phase split comes from the span aggregates. *)
  let span name = List.assoc name r.Exp.Bench_run.spans in
  Alcotest.(check int64)
    "alloc phase = alloc span" r.Exp.Bench_run.phases.Exp.Bench_run.alloc_cycles
    (Obs.Counters.get (span "alloc") Obs.Counters.cycles);
  Alcotest.(check int64)
    "compute phase = compute span" r.Exp.Bench_run.phases.Exp.Bench_run.compute_cycles
    (Obs.Counters.get (span "compute") Obs.Counters.cycles);
  let phase_sum =
    Int64.add r.Exp.Bench_run.phases.Exp.Bench_run.alloc_cycles
      r.Exp.Bench_run.phases.Exp.Bench_run.compute_cycles
  in
  Alcotest.(check bool)
    "phases sum within the total" true
    (Int64.compare phase_sum r.Exp.Bench_run.cycles <= 0);
  Alcotest.(check bool)
    "phases cover most of the run" true
    (Int64.to_float phase_sum > 0.5 *. Int64.to_float r.Exp.Bench_run.cycles)

(* Attaching the probe (and an event bus) must not change the
   architectural execution: same instret, cycles, output, exit code. *)
let test_hooks_do_not_perturb () =
  let bare = bench_result () in
  let profile = Obs.Profile.create ~period:97 () in
  let attrib = Obs.Attrib.create () in
  let probe = Obs.Probe.create ~profile ~attrib () in
  let bus = Obs.Event.create () in
  let events = Buffer.create 4096 in
  Obs.Event.subscribe bus (Obs.Event.jsonl_sink events);
  let hooked = bench_result ~probe ~bus () in
  Alcotest.(check int64) "instret unchanged" bare.Exp.Bench_run.instrs hooked.Exp.Bench_run.instrs;
  Alcotest.(check int64) "cycles unchanged" bare.Exp.Bench_run.cycles hooked.Exp.Bench_run.cycles;
  Alcotest.(check int) "exit unchanged" bare.Exp.Bench_run.exit_code hooked.Exp.Bench_run.exit_code;
  Alcotest.(check (list string))
    "output unchanged" bare.Exp.Bench_run.output hooked.Exp.Bench_run.output;
  (* The hooked run produced data the bare run could not have. *)
  Alcotest.(check bool) "profiler sampled" true (Obs.Profile.total_samples profile > 0);
  Alcotest.(check bool) "events flowed" true (Buffer.length events > 0);
  Alcotest.(check bool)
    "misses were attributed" true
    (Obs.Attrib.total attrib Obs.Attrib.c_l1d_miss > 0);
  Alcotest.(check bool)
    "probe counted capability ops" true
    (Int64.compare
       (Obs.Counters.get hooked.Exp.Bench_run.counters Obs.Counters.cap_ops)
       0L
    > 0);
  (* Sample count is instret / period (to within the final partial period). *)
  let expect = Int64.to_int (Int64.div hooked.Exp.Bench_run.instrs 97L) in
  let got = Obs.Profile.total_samples profile in
  Alcotest.(check bool)
    (Printf.sprintf "sample count %d ~ instret/period %d" got expect)
    true
    (abs (got - expect) <= 1)

(* The superblock engine retires calls and returns inside its blocks, so
   the sampler, the shadow call stack and miss attribution all run there:
   a profile must not depend on the engine that produced it. *)
let test_profile_engine_invariant () =
  let go engine =
    Exp.Profiled.run ~engine ~bench:"treeadd" ~mode:Minic.Layout.Cheri ~param:8 ~period:31 ()
  in
  let p = go Machine.Plain and s = go Machine.Superblock in
  Alcotest.(check (list string))
    "collapsed stacks" p.Exp.Profiled.collapsed s.Exp.Profiled.collapsed;
  let hot (r : Exp.Profiled.report) =
    List.map (fun (h : Exp.Profiled.hot) -> (h.Exp.Profiled.pc, h.Exp.Profiled.samples)) r.Exp.Profiled.hot
  in
  Alcotest.(check (list (pair int64 int))) "hot pcs" (hot p) (hot s);
  Alcotest.(check string)
    "attribution tables"
    (Obs.Json.to_string (Obs.Attrib.to_json p.Exp.Profiled.attrib))
    (Obs.Json.to_string (Obs.Attrib.to_json s.Exp.Profiled.attrib));
  Alcotest.check counters "architectural counters"
    (Obs.Counters.architectural p.Exp.Profiled.counters)
    (Obs.Counters.architectural s.Exp.Profiled.counters);
  Alcotest.(check bool) "the stacks saw calls" true (List.length s.Exp.Profiled.collapsed > 1);
  Alcotest.(check bool) "blocks retired most instructions" true
    (Obs.Counters.get s.Exp.Profiled.counters Obs.Counters.sb_retired
    > Int64.div (Obs.Counters.get s.Exp.Profiled.counters Obs.Counters.instret) 2L)

(* Counters, hot-PC tables, and collapsed stacks are bit-for-bit
   reproducible: the sampler is driven by retirement, not wall time. *)
let test_deterministic () =
  let go () =
    Exp.Profiled.run ~bench:"treeadd" ~mode:Minic.Layout.Cheri ~param:6 ~period:31 ~top:10 ()
  in
  let a = go () and b = go () in
  Alcotest.check counters "counter file identical" a.Exp.Profiled.counters
    b.Exp.Profiled.counters;
  Alcotest.(check int)
    "sample totals identical" a.Exp.Profiled.total_samples b.Exp.Profiled.total_samples;
  Alcotest.(check (list (pair int64 int)))
    "hot pcs identical"
    (List.map (fun (h : Exp.Profiled.hot) -> (h.Exp.Profiled.pc, h.Exp.Profiled.samples)) a.Exp.Profiled.hot)
    (List.map (fun (h : Exp.Profiled.hot) -> (h.Exp.Profiled.pc, h.Exp.Profiled.samples)) b.Exp.Profiled.hot);
  Alcotest.(check (list string))
    "collapsed stacks identical" a.Exp.Profiled.collapsed b.Exp.Profiled.collapsed;
  Alcotest.(check (list string))
    "span names identical"
    (List.map fst a.Exp.Profiled.spans)
    (List.map fst b.Exp.Profiled.spans);
  List.iter2
    (fun (n, ca) (_, cb) -> Alcotest.check counters ("span " ^ n ^ " identical") ca cb)
    a.Exp.Profiled.spans b.Exp.Profiled.spans;
  Alcotest.(check bool) "hot table non-empty" true (a.Exp.Profiled.hot <> []);
  (* Symbolization resolved the minic entry points, not raw addresses. *)
  Alcotest.(check bool)
    "some hot pc symbolizes to a label" true
    (List.exists
       (fun (h : Exp.Profiled.hot) ->
         not (String.length h.Exp.Profiled.where > 1 && h.Exp.Profiled.where.[0] = '0'))
       a.Exp.Profiled.hot)

(* The export schema round-trips the counter names. *)
let test_export_schema () =
  let r = bench_result () in
  let entry =
    {
      Obs.Export.bench = "treeadd";
      mode = "cheri";
      param = 6;
      wall_s = 0.25;
      counters = r.Exp.Bench_run.counters;
      spans = r.Exp.Bench_run.spans;
    }
  in
  let json = Obs.Json.to_string (Obs.Export.summary [ entry ]) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema tag present" true
    (contains (Printf.sprintf {|"schema":%S|} Obs.Export.schema_version) json);
  Alcotest.(check bool) "sim_mips exported" true (contains {|"sim_mips":|} json);
  (* Every counter name except the Config-class ones appears as a key. *)
  Array.iteri
    (fun i name ->
      let exported = Obs.Counters.class_of i <> Obs.Counters.Config in
      Alcotest.(check bool)
        (Printf.sprintf "counter %s %s" name (if exported then "exported" else "dropped"))
        exported
        (contains (Printf.sprintf "%S:" name) json))
    Obs.Counters.names;
  Alcotest.(check bool)
    "throughput computed" true
    (Obs.Export.interp_instr_per_s [ entry ] > 0.0)

(* --- baseline loader & differ ------------------------------------------------- *)

(* A serialized export parses back into exactly the structure a live run
   produces: write -> load is the identity under the differ. *)
let test_baseline_roundtrip () =
  let r = bench_result () in
  let entry =
    {
      Obs.Export.bench = "treeadd";
      mode = "cheri";
      param = 6;
      wall_s = 0.25;
      counters = r.Exp.Bench_run.counters;
      spans = r.Exp.Bench_run.spans;
    }
  in
  let live = Obs.Baseline.of_entries [ entry ] in
  let loaded =
    match Obs.Baseline.of_string (Obs.Json.to_string (Obs.Export.summary [ entry ])) with
    | Ok t -> t
    | Error msg -> Alcotest.failf "baseline load failed: %s" msg
  in
  Alcotest.(check string) "schema" Obs.Export.schema_version loaded.Obs.Baseline.schema;
  Alcotest.(check int) "one entry" 1 (List.length loaded.Obs.Baseline.entries);
  let report = Obs.Diff.run live loaded in
  Alcotest.(check bool)
    (Fmt.str "live == loaded (%a)" Obs.Diff.pp report)
    true (Obs.Diff.ok report);
  Alcotest.(check int) "no rows at all" 0 (List.length report.Obs.Diff.rows);
  (* counters survive by value, in schema order, without `samples` *)
  let e = List.hd loaded.Obs.Baseline.entries in
  Alcotest.(check bool) "samples dropped" false (List.mem_assoc "samples" e.Obs.Baseline.counters);
  Alcotest.(check (option int64))
    "instret survives"
    (Some (Obs.Counters.get r.Exp.Bench_run.counters Obs.Counters.instret))
    (List.assoc_opt "instret" e.Obs.Baseline.counters)

let v5_doc =
  {|{"schema":"cheri-obs-bench/5","interp_instr_per_s":1000.0,
     "benchmarks":[{"bench":"treeadd","mode":"cheri","param":6,"wall_s":0.5,
       "sim_mips":4.25,
       "counters":{"instret":100,"cycles":200},
       "spans":{"alloc":{"instret":10,"cycles":20}}}]}|}

let test_baseline_versions () =
  (match Obs.Baseline.of_string v5_doc with
  | Error msg -> Alcotest.failf "schema /5 rejected: %s" msg
  | Ok t ->
      Alcotest.(check string) "schema kept" "cheri-obs-bench/5" t.Obs.Baseline.schema;
      let e = List.hd t.Obs.Baseline.entries in
      Alcotest.(check string) "key" "treeadd/cheri/6" (Obs.Baseline.key e);
      Alcotest.(check (option (list (pair string int64))))
        "span fields loaded"
        (Some [ ("instret", 10L); ("cycles", 20L) ])
        (List.assoc_opt "alloc" e.Obs.Baseline.spans);
      Alcotest.(check (float 0.0001)) "sim_mips loaded" 4.25 e.Obs.Baseline.sim_mips);
  (* sim_mips must be a number. *)
  (match
     Obs.Baseline.of_string
       {|{"schema":"cheri-obs-bench/5","interp_instr_per_s":1.0,
          "benchmarks":[{"bench":"a","mode":"m","param":1,"wall_s":0.1,
            "sim_mips":"fast","counters":{}}]}|}
   with
  | Ok _ -> Alcotest.fail "non-numeric sim_mips accepted"
  | Error _ -> ());
  let reject doc frag =
    match Obs.Baseline.of_string doc with
    | Ok _ -> Alcotest.failf "expected rejection (%s)" frag
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S mentions %s" msg frag)
          true
          (let nl = String.length frag and hl = String.length msg in
           let rec go i = i + nl <= hl && (String.sub msg i nl = frag || go (i + 1)) in
           go 0)
  in
  reject {|{"schema":"cheri-obs-bench/99","interp_instr_per_s":1.0,"benchmarks":[]}|}
    "unsupported schema";
  (* Pre-/5 files are no longer loaded. *)
  reject {|{"schema":"cheri-obs-bench/4","interp_instr_per_s":1.0,"benchmarks":[]}|}
    "unsupported schema";
  reject
    {|{"schema":"cheri-obs-bench/5","interp_instr_per_s":1.0,
       "benchmarks":[{"bench":"a","mode":"m","param":1,"wall_s":0.1,"counters":{}}]}|}
    "sim_mips";
  reject
    {|{"schema":"cheri-obs-bench/5","interp_instr_per_s":1.0,
       "benchmarks":[{"bench":"a","mode":"m","param":1,"wall_s":0.1,"sim_mips":0.0,"counters":{}},
                     {"bench":"a","mode":"m","param":1,"wall_s":0.1,"sim_mips":0.0,"counters":{}}]}|}
    "duplicate";
  reject {|{"schema":"cheri-obs-bench/5","interp_instr_per_s":1.0,
            "benchmarks":[{"mode":"m","param":1,"wall_s":0.1,"sim_mips":0.0,"counters":{}}]}|}
    "bench"

(* The differ: exact-match architectural counters decide the exit code;
   wall clock only gets a band; counters of another class are skipped. *)
let test_diff_policy () =
  let parse doc =
    match Obs.Baseline.of_string doc with
    | Ok t -> t
    | Error msg -> Alcotest.failf "bad fixture: %s" msg
  in
  let doc ?(span_cycles = 7) counters wall =
    Printf.sprintf
      {|{"schema":"cheri-obs-bench/5","interp_instr_per_s":1000.0,
         "benchmarks":[{"bench":"b","mode":"m","param":1,"wall_s":%s,"sim_mips":0.0,
           "counters":{%s},"spans":{"alloc":{"cycles":%d}}}]}|}
      wall counters span_cycles
  in
  let base = {|"instret":100,"creturns":2,"sb_retired":5,"samples":3|} in
  let a = parse (doc base "1.0") in
  (* identical -> ok, exit 0 *)
  let r = Obs.Diff.run a a in
  Alcotest.(check bool) "identical ok" true (Obs.Diff.ok r);
  Alcotest.(check int) "identical exit 0" 0 (Obs.Diff.exit_code r);
  (* an architectural counter differs -> regression, exit 1 *)
  List.iter
    (fun (what, counters) ->
      let r = Obs.Diff.run a (parse (doc counters "1.0")) in
      Alcotest.(check bool) (what ^ " delta not ok") false (Obs.Diff.ok r);
      Alcotest.(check int) (what ^ " delta exit 1") 1 (Obs.Diff.exit_code r);
      Alcotest.(check int) (what ^ ": one arch mismatch") 1 r.Obs.Diff.arch_mismatches)
    [
      ("instret", {|"instret":101,"creturns":2,"sb_retired":5,"samples":3|});
      ("creturns", {|"instret":100,"creturns":3,"sb_retired":5,"samples":3|});
    ];
  (* host telemetry and profiler configuration differ -> skipped *)
  let c = parse (doc {|"instret":100,"creturns":2,"sb_retired":99,"samples":999|} "1.0") in
  Alcotest.(check bool) "host/config counters skipped" true (Obs.Diff.ok (Obs.Diff.run a c));
  (* a span counter differs -> architectural *)
  let r = Obs.Diff.run a (parse (doc ~span_cycles:8 base "1.0")) in
  Alcotest.(check bool) "span delta not ok" false (Obs.Diff.ok r);
  (* wall clock out of band -> flagged but not fatal by default *)
  let e = parse (doc base "10.0") in
  let r = Obs.Diff.run a e in
  Alcotest.(check bool) "wall delta ok by default" true (Obs.Diff.ok r);
  Alcotest.(check int) "wall delta flagged" 1 r.Obs.Diff.wall_flagged;
  let strict = { Obs.Diff.default_policy with Obs.Diff.fail_on_wall = true } in
  Alcotest.(check bool)
    "wall delta fatal under strict" false
    (Obs.Diff.ok (Obs.Diff.run ~policy:strict a e));
  (* a run missing on one side -> regression both ways *)
  let none =
    parse {|{"schema":"cheri-obs-bench/5","interp_instr_per_s":1000.0,"benchmarks":[]}|}
  in
  let r = Obs.Diff.run a none in
  Alcotest.(check int) "missing counted" 1 r.Obs.Diff.missing;
  Alcotest.(check bool) "missing not ok" false (Obs.Diff.ok r);
  Alcotest.(check bool) "appearing not ok" false (Obs.Diff.ok (Obs.Diff.run none a))

(* --- miss attribution ---------------------------------------------------------- *)

(* The acceptance invariant: for every miss class the per-PC table, the
   per-region table, and the running totals agree — and equal the
   whole-run counter file, because the events fire at exactly the sites
   that feed the counters. *)
let test_attrib_sums_match_counters () =
  let r = Exp.Profiled.run ~bench:"treeadd" ~mode:Minic.Layout.Cheri ~param:6 () in
  Alcotest.(check int) "clean exit" 0 r.Exp.Profiled.result.Exp.Bench_run.exit_code;
  let a = r.Exp.Profiled.attrib in
  let counter i = Int64.to_int (Obs.Counters.get r.Exp.Profiled.counters i) in
  List.iter
    (fun (cls, idx, name) ->
      Alcotest.(check int)
        (name ^ ": pc table sums to total")
        (Obs.Attrib.total a cls) (Obs.Attrib.pc_total a cls);
      Alcotest.(check int)
        (name ^ ": region table sums to total")
        (Obs.Attrib.total a cls)
        (Obs.Attrib.region_total a cls);
      Alcotest.(check int)
        (name ^ ": attribution total equals the whole-run counter")
        (counter idx) (Obs.Attrib.total a cls))
    [
      (Obs.Attrib.c_l1i_miss, Obs.Counters.l1i_misses, "l1i_miss");
      (Obs.Attrib.c_l1d_miss, Obs.Counters.l1d_misses, "l1d_miss");
      (Obs.Attrib.c_l2_miss, Obs.Counters.l2_misses, "l2_miss");
      (Obs.Attrib.c_tlb_miss, Obs.Counters.tlb_misses, "tlb_miss");
      (Obs.Attrib.c_tag_miss, Obs.Counters.tag_misses, "tag_miss");
      (Obs.Attrib.c_dram_read_bytes, Obs.Counters.dram_read_bytes, "dram_read_bytes");
      (Obs.Attrib.c_dram_write_bytes, Obs.Counters.dram_write_bytes, "dram_write_bytes");
    ];
  (* a cheri run moves tagged capabilities: tag writes and bounds flowed *)
  Alcotest.(check bool) "tag sets observed" true (Obs.Attrib.total a Obs.Attrib.c_tag_sets > 0);
  Alcotest.(check bool)
    "cap bounds histogram fed" true
    (Obs.Hist.total
       (List.nth (Obs.Attrib.hists a) 3)
    > 0);
  (* span durations flowed into the profiled report's histogram *)
  Alcotest.(check bool) "span durations observed" true (Obs.Hist.total r.Exp.Profiled.durations > 0);
  (* the hot-PC table and attribution agree the run was attributed *)
  Alcotest.(check bool)
    "some PC attributed a D-miss" true
    (Obs.Attrib.top_pcs a ~by:Obs.Attrib.c_l1d_miss ~n:1 () <> [])

(* --- trace collector ------------------------------------------------------- *)

let test_trace_ring () =
  let tr = Obs.Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Trace.phase_begin tr ~ts:i (Printf.sprintf "p%d" i)
  done;
  Alcotest.(check int) "ring holds capacity" 4 (Obs.Trace.length tr);
  Alcotest.(check int) "every record counted" 10 (Obs.Trace.recorded tr);
  Alcotest.(check int) "overflow dropped oldest" 6 (Obs.Trace.dropped tr);
  (* Oldest-first: the survivors are the last four pushes. *)
  match Obs.Trace.events tr with
  | { Obs.Trace.ts = 6; _ } :: _ -> ()
  | e :: _ -> Alcotest.fail (Printf.sprintf "oldest survivor at ts %d, expected 6" e.Obs.Trace.ts)
  | [] -> Alcotest.fail "ring empty"

let test_trace_arming () =
  let tr = Obs.Trace.create () in
  (* Armed from creation (profiled runs have no request stream). *)
  Obs.Trace.ccall tr ~ts:1 ~otype:0x40;
  Alcotest.(check int) "armed by default" 1 (Obs.Trace.recorded tr);
  Obs.Trace.skip_request tr;
  Obs.Trace.ccall tr ~ts:2 ~otype:0x40;
  Alcotest.(check int) "disarmed records nothing" 1 (Obs.Trace.recorded tr);
  Obs.Trace.begin_request tr ~ts:3 ~id:7 ~kind:1 ~declared:4 ~actual:4 ~route:0 ~worker:0;
  Obs.Trace.ccall tr ~ts:4 ~otype:0x41;
  Obs.Trace.end_request tr ~ts:5 ~code:11;
  Obs.Trace.ccall tr ~ts:6 ~otype:0x41;
  Alcotest.(check int) "request window recorded, tail did not" 4 (Obs.Trace.recorded tr);
  let reqs = List.map (fun e -> e.Obs.Trace.req) (Obs.Trace.events tr) in
  Alcotest.(check (list int)) "request id stamped" [ -1; 7; 7; 7 ] reqs

let test_trace_chrome_balance () =
  let tr = Obs.Trace.create () in
  Obs.Trace.set_labels tr [ (0x40, "w0") ];
  Obs.Trace.begin_request tr ~ts:10 ~id:0 ~kind:2 ~declared:8 ~actual:8 ~route:0 ~worker:0;
  Obs.Trace.ccall tr ~ts:12 ~otype:0x40;
  (* An unwound creturn still closes the worker span... *)
  Obs.Trace.trap tr ~ts:20 ~exc:"CP2" ~cause:"length" ~pc:0x1000L;
  Obs.Trace.creturn tr ~ts:20 ~otype:0x40 ~unwound:true;
  Obs.Trace.end_request tr ~ts:21 ~code:2;
  (* ...and a dangling open is retracted rather than exported. *)
  Obs.Trace.begin_request tr ~ts:30 ~id:1 ~kind:0 ~declared:1 ~actual:1 ~route:1 ~worker:0;
  Obs.Trace.ccall tr ~ts:31 ~otype:0x40;
  let events = Obs.Trace.to_chrome_events ~pid:1 ~process:"test" tr in
  let ph e = match Obs.Json.member "ph" e with Some (Obs.Json.String s) -> s | _ -> "?" in
  let opens = List.length (List.filter (fun e -> ph e = "B") events)
  and closes = List.length (List.filter (fun e -> ph e = "E") events) in
  Alcotest.(check int) "balanced B/E" opens closes;
  Alcotest.(check int) "one request + one worker span survive" 2 opens;
  Alcotest.(check int) "trap instant exported" 1
    (List.length (List.filter (fun e -> ph e = "i") events));
  (* Round-trips through the serializer as valid JSON. *)
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Trace.chrome_document events)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_series_boundaries () =
  let c = Obs.Counters.create () in
  let read () = Obs.Counters.copy c in
  let s = Obs.Series.create ~interval:100 ~read () in
  let step n =
    for _ = 1 to n do
      Obs.Counters.incr c Obs.Counters.instret;
      Obs.Counters.incr c Obs.Counters.cycles;
      Obs.Series.tick s ~instret:(Int64.to_int (Obs.Counters.get c Obs.Counters.instret))
    done
  in
  step 99;
  Alcotest.(check int) "below the boundary: no sample" 0 (Obs.Series.count s);
  step 1;
  Alcotest.(check int) "boundary sampled" 1 (Obs.Series.count s);
  step 250;
  Alcotest.(check int) "every interval sampled once" 3 (Obs.Series.count s);
  let deltas =
    List.map
      (fun (smp : Obs.Series.sample) -> Obs.Counters.get smp.Obs.Series.delta Obs.Counters.instret)
      (Obs.Series.samples s)
  in
  Alcotest.(check (list int64)) "deltas partition the stream" [ 100L; 100L; 100L ] deltas;
  (* Merging with offsets preserves order and shifts boundaries. *)
  let merged = Obs.Series.create ~interval:100 () in
  Obs.Series.append s ~instret_offset:0 ~cycles_offset:0 ~into:merged;
  Obs.Series.append s ~instret_offset:1000 ~cycles_offset:1000 ~into:merged;
  Alcotest.(check int) "merged sample count" 6 (Obs.Series.count merged);
  match List.rev (Obs.Series.samples merged) with
  | last :: _ -> Alcotest.(check int) "offset applied" 1300 last.Obs.Series.at_instret
  | [] -> Alcotest.fail "merged series empty"

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "json escaping" `Quick test_json_escaping;
        Alcotest.test_case "json parse" `Quick test_json_parse;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
        Alcotest.test_case "counter ratios" `Quick test_counter_ratios;
        Alcotest.test_case "event bus" `Quick test_event_bus;
        Alcotest.test_case "profile sampling" `Quick test_profile_sampling;
        Alcotest.test_case "profile stacks" `Quick test_profile_stacks;
        Alcotest.test_case "counters match machine" `Quick test_counters_match_machine;
        Alcotest.test_case "bench counters consistent" `Quick test_bench_counters_consistent;
        Alcotest.test_case "hooks do not perturb" `Quick test_hooks_do_not_perturb;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "profiles are engine-invariant" `Quick test_profile_engine_invariant;
        Alcotest.test_case "export schema" `Quick test_export_schema;
        Alcotest.test_case "log2 histograms" `Quick test_hist;
        Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
        Alcotest.test_case "baseline versions" `Quick test_baseline_versions;
        Alcotest.test_case "diff policy" `Quick test_diff_policy;
        Alcotest.test_case "attrib sums match counters" `Quick test_attrib_sums_match_counters;
        Alcotest.test_case "trace ring" `Quick test_trace_ring;
        Alcotest.test_case "trace arming" `Quick test_trace_arming;
        Alcotest.test_case "trace chrome balance" `Quick test_trace_chrome_balance;
        Alcotest.test_case "series boundaries" `Quick test_series_boundaries;
      ] );
  ]
