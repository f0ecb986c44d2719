(* The compartment-count sweep: replay the same request stream through
   the monolithic and compartmentalized servers for each N and measure
   what the sealed-cap domain crossings cost.

   Determinism contract (same as the fault/fuzz campaigns): work is cut
   into fixed-size chunks at absolute indices, each chunk runs on a fresh
   machine seeded only by (base_seed, chunk_index), and [Exp.Pool.map]
   returns chunk results in input order — so the merged result is
   byte-identical for any --jobs and for either interpreter engine (the
   engines are proven bit-exact; only wall clocks differ, and --no-wall
   zeroes those).

   The crossing-cost numbers are honest paired differences: point
   (compart, N) and point (mono, N) replay the *identical* request
   sequence, so cost[i] = latency_compart[i] - latency_mono[i] isolates
   the protection mechanism — trap entry, trusted-stack push/pop, the
   sealed-pair loads, and the cache perturbation of the domain switch —
   from the workload itself.  As a cross-isolation oracle, the response
   digests of the two modes must be identical: same workers, same
   payloads, same bounds, so every request must produce the same response
   code whether or not a compartment boundary was in the way. *)

module Prng = Fault.Prng

(* Tracing attachment: stride-sample 1-in-[stride] requests into a
   bounded ring of [capacity] events, and (optionally) sample the
   counter file every [series] retirements.  The stride phase is
   derived from the workload seed, so which requests are sampled is a
   property of the stream, not of the chunking — byte-identical for any
   --jobs. *)
type trace_cfg = {
  stride : int; (* sample 1-in-this-many requests; <= 1 = all *)
  capacity : int; (* trace ring capacity, events *)
  series : int option; (* counter-sample interval, retirements *)
}

let default_trace = { stride = 64; capacity = 1 lsl 16; series = None }

type cfg = {
  requests : int;
  base_seed : int64;
  mix : Workload.mix;
  ns : int list; (* compartment counts to sweep (powers of two) *)
  engine : Machine.engine;
  jobs : int;
  no_wall : bool; (* zero wall clocks: fully deterministic output *)
  trace : trace_cfg option; (* None: no collector, zero overhead *)
  cold : bool;
      (* true: boot a fresh server for every chunk (the pre-pooling
         behaviour, kept as an escape hatch and as the bit-exactness
         reference); false: serve each chunk from a per-domain warm
         server rewound by [Server.reset] *)
}

let default_cfg =
  {
    requests = 100_000;
    base_seed = 0xC0FFEEL;
    mix = Workload.default_mix;
    ns = [ 1; 2; 4; 8 ];
    engine = Machine.Superblock;
    jobs = 1;
    no_wall = false;
    trace = None;
    cold = false;
  }

let chunk_size = 4096

type point = { isolation : Scenario.isolation; n : int }

let point_name p = Printf.sprintf "%s/N=%d" (Scenario.isolation_name p.isolation) p.n

type point_result = {
  point : point;
  requests : int;
  served : int;
  rejected_kind : int;
  rejected_trap : int;
  abnormal : int;
  digest : int64; (* response-stream digest: the cross-isolation oracle *)
  latencies : int array; (* per-request simulated cycles, stream order *)
  counters : Obs.Counters.t; (* architectural counters over all requests *)
  ccall_span : Obs.Counters.t; (* in-compartment aggregate (kernel span) *)
  crossing : Obs.Hist.t; (* per-crossing duration histogram *)
  class_hists : Obs.Hist.t array; (* latency per size-class x accepted/rejected *)
  comp_hists : Obs.Hist.t array; (* latency per worker compartment *)
  trace : Obs.Trace.t option; (* merged sweep-wide event timeline *)
  series : Obs.Series.t option; (* merged counter time-series *)
  wall_s : float;
}

(* Crossing cost for one N: percentiles of the paired per-request latency
   difference (compart - mono) over the identical stream. *)
type crossing_cost = { cost_n : int; p50 : int; p90 : int; p99 : int; mean : float }

type result = {
  cfg : cfg;
  points : point_result list;
  costs : crossing_cost list;
  digests_match : bool;
  wall_s : float;
      (* host wall clock of the whole sweep (fan-out included) — the
         honest denominator for host-side serving throughput; 0 under
         --no-wall so deterministic exports stay byte-identical *)
}

(* --- chunk execution ------------------------------------------------------ *)

let mix64 x =
  let p = Prng.create x in
  Prng.next p

let fold_digest d code = mix64 (Int64.logxor d (Int64.of_int (code + 0x1000)))
let response_code = Server.response_code

(* Which request ids a trace samples: abs_id mod stride = offset, with
   the offset drawn from the workload seed so the sampled set is pinned
   to the stream (chunking- and jobs-independent) but not always id 0. *)
let trace_offset (cfg : cfg) =
  match cfg.trace with
  | Some tc when tc.stride > 1 ->
      Int64.to_int
        (Int64.rem
           (Int64.logand (mix64 cfg.base_seed) 0x3FFF_FFFF_FFFF_FFFFL)
           (Int64.of_int tc.stride))
  | _ -> 0

let traced_request (cfg : cfg) abs_id =
  match cfg.trace with
  | None -> false
  | Some tc -> tc.stride <= 1 || abs_id mod tc.stride = trace_offset cfg

(* Per-request latency classification: one histogram per (size class,
   accepted/rejected) cell and one per worker compartment. *)
let class_hist_count = Workload.size_classes * 2

let class_hist_name i =
  Printf.sprintf "lat/%s/%s"
    (Workload.size_class_name (i / 2))
    (if i mod 2 = 0 then "served" else "rejected")

let make_class_hists () =
  Array.init class_hist_count (fun i -> Obs.Hist.create ~name:(class_hist_name i) ())

let make_comp_hists n =
  Array.init n (fun w -> Obs.Hist.create ~name:("comp/" ^ Scenario.worker_label w) ())

type chunk_out = {
  ch_latencies : int array;
  ch_served : int;
  ch_rejected_kind : int;
  ch_rejected_trap : int;
  ch_abnormal : int;
  ch_digest : int64;
  ch_counters : Obs.Counters.t;
  ch_ccall : Obs.Counters.t;
  ch_crossing : Obs.Hist.t;
  ch_class : Obs.Hist.t array;
  ch_comp : Obs.Hist.t array;
  ch_trace : Obs.Trace.t option;
  ch_series : Obs.Series.t option;
  ch_end_cycles : int; (* chunk machine's final cycle count (merge offset) *)
  ch_end_instret : int;
  ch_wall : float;
}

(* The warm-server pool: one booted machine per (isolation, n, engine,
   series interval) that this domain has seen, rewound by [Server.reset]
   between chunks instead of rebuilt by [create] + [boot].  The series
   interval is part of the key because a chunk's counter series opens
   with boot-period samples — a server can only be rewound into a chunk
   whose sampler matches the one it booted under.  Chunk output is
   bit-identical either way (the restore is architecturally exact and
   every observer is chunk-scoped); only host-side boot work is saved.
   Domain-local (see [Exp.Pool.Cache]): at most [cap] live servers per
   pool domain, about 35 MB each at the scenario's 16 MiB memory. *)
let server_pool :
    (Scenario.isolation * int * Machine.engine * int option, Server.t) Exp.Pool.Cache.t =
  Exp.Pool.Cache.create ~cap:16 ()

let run_chunk (cfg : cfg) point ~index ~count =
  let t0 = Unix.gettimeofday () in
  let trace =
    match cfg.trace with
    | Some tc -> Some (Obs.Trace.create ~capacity:tc.capacity ())
    | None -> None
  in
  let series_interval =
    match cfg.trace with Some { series; _ } -> series | None -> None
  in
  let server =
    if cfg.cold then begin
      let s =
        Server.create ~engine:cfg.engine ?trace ?series_interval ~isolation:point.isolation
          ~n:point.n ()
      in
      Server.boot s;
      s
    end
    else begin
      let s =
        Exp.Pool.Cache.find_or_make server_pool
          (point.isolation, point.n, cfg.engine, series_interval)
          (fun () ->
            (* Boot without a trace: a cold server's collector is
               disarmed until its first request anyway, so booting
               traceless is observationally identical. *)
            let s =
              Server.create ~engine:cfg.engine ?series_interval ~isolation:point.isolation
                ~n:point.n ()
            in
            Server.boot s;
            s)
      in
      Server.reset ?trace ?series_interval s;
      s
    end
  in
  let reqs = Workload.gen_chunk ~mix:cfg.mix ~base_seed:cfg.base_seed ~index ~count in
  let before = Server.counters server in
  let served = ref 0
  and rejected_kind = ref 0
  and rejected_trap = ref 0
  and abnormal = ref 0
  and digest = ref 0L in
  let class_h = make_class_hists () in
  let comp_h = make_comp_hists point.n in
  let latencies =
    Array.mapi
      (fun j req ->
        let abs_id = (index * chunk_size) + j in
        let trace_id = if traced_request cfg abs_id then Some abs_id else None in
        let response, latency = Server.serve_one ?trace_id server req in
        let is_served = match response with Server.Served _ -> true | _ -> false in
        (match response with
        | Server.Served _ -> incr served
        | Server.Rejected_kind -> incr rejected_kind
        | Server.Rejected_trap _ -> incr rejected_trap
        | Server.Abnormal _ -> incr abnormal);
        Obs.Hist.observe_int
          class_h.((Workload.size_class req * 2) + if is_served then 0 else 1)
          latency;
        (* Rejected-kind requests never reach a worker; everything else
           is attributable to the routed compartment. *)
        (match response with
        | Server.Rejected_kind -> ()
        | _ ->
            Obs.Hist.observe_int
              comp_h.(req.Workload.route land (point.n - 1))
              latency);
        digest := fold_digest !digest (response_code response);
        latency)
      reqs
  in
  let ch_counters = Obs.Counters.diff (Server.counters server) before in
  let ch_ccall =
    match Obs.Span.find server.Server.span "ccall" with
    | Some c -> Obs.Counters.copy c
    | None -> Obs.Counters.create ()
  in
  {
    ch_latencies = latencies;
    ch_served = !served;
    ch_rejected_kind = !rejected_kind;
    ch_rejected_trap = !rejected_trap;
    ch_abnormal = !abnormal;
    ch_digest = !digest;
    ch_counters;
    ch_ccall;
    ch_crossing = server.Server.crossing;
    ch_class = class_h;
    ch_comp = comp_h;
    ch_trace = trace;
    ch_series = server.Server.series;
    ch_end_cycles = server.Server.machine.Machine.cycles;
    ch_end_instret = server.Server.machine.Machine.instret;
    ch_wall = Unix.gettimeofday () -. t0;
  }

(* --- the sweep ------------------------------------------------------------ *)

let chunks_of (cfg : cfg) =
  let n = (cfg.requests + chunk_size - 1) / chunk_size in
  List.init n (fun i ->
      (i, if i = n - 1 then cfg.requests - (i * chunk_size) else chunk_size))

let merge_chunks (cfg : cfg) point outs =
  let crossing = Obs.Hist.create ~name:"domain crossing [cycles]" () in
  let counters = Obs.Counters.create () and ccall = Obs.Counters.create () in
  let class_hists = make_class_hists () in
  let comp_hists = make_comp_hists point.n in
  let served = ref 0
  and rejected_kind = ref 0
  and rejected_trap = ref 0
  and abnormal = ref 0
  and digest = ref 0L
  and wall = ref 0.0 in
  (* Each chunk's trace and series carry that chunk machine's own clock
     (starting at 0); shifting chunk i by the cumulative cycle/instret
     totals of chunks 0..i-1 reconstructs one monotonic sweep-wide
     timeline, identical for any --jobs. *)
  let trace =
    match cfg.trace with
    | Some _ ->
        let total =
          List.fold_left
            (fun acc ch ->
              acc + match ch.ch_trace with Some tr -> Obs.Trace.length tr | None -> 0)
            0 outs
        in
        let tr = Obs.Trace.create ~capacity:total () in
        Obs.Trace.set_labels tr (Scenario.otype_labels ~n:point.n);
        Some tr
    | None -> None
  in
  let series =
    match cfg.trace with
    | Some { series = Some interval; _ } -> Some (Obs.Series.create ~interval ())
    | _ -> None
  in
  let cyc_off = ref 0 and ins_off = ref 0 in
  List.iter
    (fun ch ->
      served := !served + ch.ch_served;
      rejected_kind := !rejected_kind + ch.ch_rejected_kind;
      rejected_trap := !rejected_trap + ch.ch_rejected_trap;
      abnormal := !abnormal + ch.ch_abnormal;
      digest := mix64 (Int64.logxor !digest ch.ch_digest);
      Obs.Counters.accumulate counters ch.ch_counters;
      Obs.Counters.accumulate ccall ch.ch_ccall;
      Obs.Hist.merge crossing ch.ch_crossing;
      Array.iteri (fun i h -> Obs.Hist.merge class_hists.(i) h) ch.ch_class;
      Array.iteri (fun i h -> Obs.Hist.merge comp_hists.(i) h) ch.ch_comp;
      (match (trace, ch.ch_trace) with
      | Some into, Some src -> Obs.Trace.append src ~ts_offset:!cyc_off ~into
      | _ -> ());
      (match (series, ch.ch_series) with
      | Some into, Some src ->
          Obs.Series.append src ~instret_offset:!ins_off ~cycles_offset:!cyc_off ~into
      | _ -> ());
      cyc_off := !cyc_off + ch.ch_end_cycles;
      ins_off := !ins_off + ch.ch_end_instret;
      wall := !wall +. ch.ch_wall)
    outs;
  (match series with Some s -> Obs.Series.sanitize s | None -> ());
  {
    point;
    requests = cfg.requests;
    served = !served;
    rejected_kind = !rejected_kind;
    rejected_trap = !rejected_trap;
    abnormal = !abnormal;
    digest = !digest;
    latencies = Array.concat (List.map (fun ch -> ch.ch_latencies) outs);
    counters;
    ccall_span = ccall;
    crossing;
    class_hists;
    comp_hists;
    trace;
    series;
    wall_s = (if cfg.no_wall then 0.0 else !wall);
  }

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let crossing_cost mono compart =
  let n = min (Array.length mono.latencies) (Array.length compart.latencies) in
  let deltas = Array.init n (fun i -> compart.latencies.(i) - mono.latencies.(i)) in
  let sum = Array.fold_left ( + ) 0 deltas in
  Array.sort compare deltas;
  {
    cost_n = compart.point.n;
    p50 = percentile deltas 0.50;
    p90 = percentile deltas 0.90;
    p99 = percentile deltas 0.99;
    mean = (if n = 0 then 0.0 else float_of_int sum /. float_of_int n);
  }

let run cfg =
  List.iter
    (fun n ->
      if n < 1 || n > Scenario.max_workers || n land (n - 1) <> 0 then
        invalid_arg "Sweep.run: ns must be powers of two in [1, 8]")
    cfg.ns;
  let t0 = Unix.gettimeofday () in
  let points =
    List.concat_map
      (fun n -> [ { isolation = Scenario.Mono; n }; { isolation = Scenario.Compart; n } ])
      cfg.ns
  in
  let chunks = chunks_of cfg in
  let units =
    List.concat_map (fun point -> List.map (fun (i, c) -> (point, i, c)) chunks) points
  in
  let outs =
    Exp.Pool.map ~jobs:cfg.jobs
      (fun (point, index, count) -> (point, run_chunk cfg point ~index ~count))
      units
  in
  let results =
    List.map
      (fun point ->
        let mine = List.filter_map (fun (p, o) -> if p = point then Some o else None) outs in
        merge_chunks cfg point mine)
      points
  in
  let find iso n =
    List.find (fun r -> r.point.isolation = iso && r.point.n = n) results
  in
  let costs =
    List.map (fun n -> crossing_cost (find Scenario.Mono n) (find Scenario.Compart n)) cfg.ns
  in
  let digests_match =
    List.for_all
      (fun n ->
        Int64.equal (find Scenario.Mono n).digest (find Scenario.Compart n).digest)
      cfg.ns
  in
  {
    cfg;
    points = results;
    costs;
    digests_match;
    wall_s = (if cfg.no_wall then 0.0 else Unix.gettimeofday () -. t0);
  }

(* --- reporting ------------------------------------------------------------ *)

let sorted_latencies pr =
  let a = Array.copy pr.latencies in
  Array.sort compare a;
  a

let requests_per_s (pr : point_result) =
  if pr.wall_s <= 0.0 then 0.0 else float_of_int pr.requests /. pr.wall_s

(* Host-side serving throughput over the whole sweep: every point
   replays the full request stream, so the numerator is requests x
   points; the denominator is the sweep's real wall clock, fan-out
   included (unlike a point's [wall_s], which sums per-chunk clocks
   across domains).  Zero under --no-wall. *)
let host_requests_per_s r =
  if r.wall_s <= 0.0 then 0.0
  else float_of_int (r.cfg.requests * List.length r.points) /. r.wall_s

let pp_result ppf r =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "%d requests, seed 0x%Lx, engine %s, %d jobs@,@," r.cfg.requests
    r.cfg.base_seed
    (Machine.engine_to_string r.cfg.engine)
    r.cfg.jobs;
  Fmt.pf ppf "%-14s %9s %8s %8s %6s %10s %9s %9s %10s %10s@," "point" "served"
    "rej-kind" "rej-trap" "abn" "req/s" "lat-p50" "lat-p99" "ccalls" "ctx-saves";
  List.iter
    (fun pr ->
      let s = sorted_latencies pr in
      Fmt.pf ppf "%-14s %9d %8d %8d %6d %10.0f %9d %9d %10Ld %10Ld@," (point_name pr.point)
        pr.served pr.rejected_kind pr.rejected_trap pr.abnormal (requests_per_s pr)
        (percentile s 0.50) (percentile s 0.99)
        (Obs.Counters.get pr.counters Obs.Counters.ccalls)
        (Obs.Counters.get pr.counters Obs.Counters.ctx_saves))
    r.points;
  Fmt.pf ppf "@,crossing cost (compart - mono, paired per-request cycles):@,";
  Fmt.pf ppf "%-6s %9s %9s %9s %10s@," "N" "p50" "p90" "p99" "mean";
  List.iter
    (fun c ->
      Fmt.pf ppf "%-6d %9d %9d %9d %10.1f@," c.cost_n c.p50 c.p90 c.p99 c.mean)
    r.costs;
  Fmt.pf ppf "@,response digests %s across isolation modes"
    (if r.digests_match then "match" else "MISMATCH");
  if r.wall_s > 0.0 then
    Fmt.pf ppf "@,host throughput: %.0f requests/s (%d requests x %d points in %.2f s, %s path)"
      (host_requests_per_s r) r.cfg.requests (List.length r.points) r.wall_s
      (if r.cfg.cold then "cold" else "warm");
  Fmt.pf ppf "@]"

(* --- JSON export (cheri-serve/1) ------------------------------------------ *)

(* The serve JSON must be byte-identical across interpreter engines, so
   every counter export zeroes the non-architectural counters. *)
let point_to_json pr =
  let s = sorted_latencies pr in
  Obs.Json.Obj
    [
      ("isolation", Obs.Json.String (Scenario.isolation_name pr.point.isolation));
      ("n", Obs.Json.Int (Int64.of_int pr.point.n));
      ("requests", Obs.Json.Int (Int64.of_int pr.requests));
      ("served", Obs.Json.Int (Int64.of_int pr.served));
      ("rejected_kind", Obs.Json.Int (Int64.of_int pr.rejected_kind));
      ("rejected_trap", Obs.Json.Int (Int64.of_int pr.rejected_trap));
      ("abnormal", Obs.Json.Int (Int64.of_int pr.abnormal));
      ("digest", Obs.Json.String (Printf.sprintf "0x%Lx" pr.digest));
      ("wall_s", Obs.Json.Float pr.wall_s);
      ("requests_per_s", Obs.Json.Float (requests_per_s pr));
      ( "latency_cycles",
        Obs.Json.Obj
          [
            ("p50", Obs.Json.Int (Int64.of_int (percentile s 0.50)));
            ("p90", Obs.Json.Int (Int64.of_int (percentile s 0.90)));
            ("p99", Obs.Json.Int (Int64.of_int (percentile s 0.99)));
          ] );
      ("counters", Obs.Counters.to_json (Obs.Counters.architectural pr.counters));
      ( "ccall_span",
        Obs.Json.Obj
          [
            ("instret", Obs.Json.Int (Obs.Counters.get pr.ccall_span Obs.Counters.instret));
            ("cycles", Obs.Json.Int (Obs.Counters.get pr.ccall_span Obs.Counters.cycles));
          ] );
      ("crossing_hist", Obs.Hist.to_json pr.crossing);
      ( "class_hists",
        Obs.Json.List (Array.to_list (Array.map Obs.Hist.to_json pr.class_hists)) );
      ( "compartment_hists",
        Obs.Json.List (Array.to_list (Array.map Obs.Hist.to_json pr.comp_hists)) );
    ]

(* cheri-serve/2 adds per-point `class_hists` (latency per size-class x
   accepted/rejected) and `compartment_hists` (latency per worker). *)
let to_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "cheri-serve/2");
      ("requests", Obs.Json.Int (Int64.of_int r.cfg.requests));
      ("seed", Obs.Json.String (Printf.sprintf "0x%Lx" r.cfg.base_seed));
      ("digests_match", Obs.Json.Bool r.digests_match);
      (* Host-side fields (additive to /2): zero under --no-wall, so the
         deterministic report stays byte-identical warm or cold. *)
      ("wall_s", Obs.Json.Float r.wall_s);
      ("host_requests_per_s", Obs.Json.Float (host_requests_per_s r));
      ("points", Obs.Json.List (List.map point_to_json r.points));
      ( "crossing_cost",
        Obs.Json.List
          (List.map
             (fun c ->
               Obs.Json.Obj
                 [
                   ("n", Obs.Json.Int (Int64.of_int c.cost_n));
                   ("p50", Obs.Json.Int (Int64.of_int c.p50));
                   ("p90", Obs.Json.Int (Int64.of_int c.p90));
                   ("p99", Obs.Json.Int (Int64.of_int c.p99));
                   ("mean", Obs.Json.Float c.mean);
                 ])
             r.costs) );
    ]

(* --- obs-schema export (bench serve / cheri_diff) ------------------------- *)

(* The latency percentiles and crossing costs ride in pseudo-spans (the
   span schema carries instret/cycles pairs): deterministic architectural
   numbers, so the diff harness pins them exactly. *)
let obs_entries r =
  let pseudo_span name cycles =
    let c = Obs.Counters.create () in
    Obs.Counters.set_int c Obs.Counters.cycles cycles;
    (name, c)
  in
  List.map
    (fun pr ->
      let s = sorted_latencies pr in
      (* Architectural counters only: host-class fields depend on how
         warm the engine's translation caches are, so leaving them in
         would make the export differ between warm-pool and --cold runs
         of the same sweep. *)
      let spans =
        (if Int64.equal (Obs.Counters.get pr.ccall_span Obs.Counters.instret) 0L then []
         else [ ("ccall", Obs.Counters.architectural pr.ccall_span) ])
        @ [
            pseudo_span "lat_p50" (percentile s 0.50);
            pseudo_span "lat_p99" (percentile s 0.99);
          ]
        @
        match
          ( pr.point.isolation,
            List.find_opt (fun c -> c.cost_n = pr.point.n) r.costs )
        with
        | Scenario.Compart, Some c ->
            [ pseudo_span "xcost_p50" c.p50; pseudo_span "xcost_p99" c.p99 ]
        | _ -> []
      in
      {
        Obs.Export.bench = "serve";
        mode = Scenario.isolation_name pr.point.isolation;
        param = pr.point.n;
        wall_s = pr.wall_s;
        counters = Obs.Counters.architectural pr.counters;
        spans;
      })
    r.points

(* --- trace exports --------------------------------------------------------- *)

(* The full Chrome trace-event document (Perfetto / about://tracing):
   one process per sweep point, duration tracks from the trace, counter
   tracks from the series. *)
let chrome_json r =
  let parts =
    List.concat
      (List.mapi
         (fun i pr ->
           let pid = i + 1 in
           (match pr.trace with
           | Some tr -> Obs.Trace.to_chrome_events ~pid ~process:(point_name pr.point) tr
           | None -> [])
           @ match pr.series with Some s -> Obs.Series.to_chrome_events ~pid s | None -> [])
         r.points)
  in
  Obs.Trace.chrome_document parts

(* cheri-obs-trace/1: the diffable digest of a traced sweep, in the
   bench-file shape so Obs.Baseline loads it and Obs.Diff pins it.  Each
   point is one entry; the spans object carries the per-request-class
   and per-compartment latency histograms as integer field sets, plus
   the trace/series cardinalities.  Everything is architectural, so the
   file is byte-identical for any --jobs and either engine. *)
let trace_obs_json r =
  let hist_fields h =
    [
      ("total", Obs.Json.Int (Int64.of_int h.Obs.Hist.total));
      ("sum", Obs.Json.Int h.Obs.Hist.sum);
      ("min", Obs.Json.Int (if h.Obs.Hist.total = 0 then 0L else h.Obs.Hist.vmin));
      ("max", Obs.Json.Int h.Obs.Hist.vmax);
      ("p50", Obs.Json.Int (Obs.Hist.quantile h 0.50));
      ("p99", Obs.Json.Int (Obs.Hist.quantile h 0.99));
    ]
  in
  let entry pr =
    let c = Obs.Counters.architectural pr.counters in
    let spans =
      List.map (fun h -> (h.Obs.Hist.name, Obs.Json.Obj (hist_fields h)))
        (Array.to_list pr.class_hists @ Array.to_list pr.comp_hists)
      @ [
          ( "trace/events",
            Obs.Json.Obj
              [
                ( "recorded",
                  Obs.Json.Int
                    (Int64.of_int
                       (match pr.trace with Some tr -> Obs.Trace.recorded tr | None -> 0)) );
                ( "dropped",
                  Obs.Json.Int
                    (Int64.of_int
                       (match pr.trace with Some tr -> Obs.Trace.dropped tr | None -> 0)) );
              ] );
          ( "series/samples",
            Obs.Json.Obj
              [
                ( "count",
                  Obs.Json.Int
                    (Int64.of_int
                       (match pr.series with Some s -> Obs.Series.count s | None -> 0)) );
              ] );
        ]
    in
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "trace");
        ("mode", Obs.Json.String (Scenario.isolation_name pr.point.isolation));
        ("param", Obs.Json.Int (Int64.of_int pr.point.n));
        ("cycles", Obs.Json.Int (Obs.Counters.get c Obs.Counters.cycles));
        ("instret", Obs.Json.Int (Obs.Counters.get c Obs.Counters.instret));
        ("wall_s", Obs.Json.Float 0.0);
        ("sim_mips", Obs.Json.Float 0.0);
        ( "counters",
          Obs.Json.Obj
            (List.map (fun (n, v) -> (n, Obs.Json.Int v)) (Obs.Export.counter_fields c)) );
        ("spans", Obs.Json.Obj spans);
      ]
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String Obs.Export.schema_trace);
      ("interp_instr_per_s", Obs.Json.Float 0.0);
      ("benchmarks", Obs.Json.List (List.map entry r.points));
    ]
