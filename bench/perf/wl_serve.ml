(* The serving workload: the compartment server's N=8 sweep point pair
   (mono/N=8 and compart/N=8) on the default request mix.  Each work
   item is one [Serve.Sweep.run] of one 1024-request chunk per point —
   short bursts of simulation (~4 k insns per request), kernel
   CCall/CReturn traps on the compart side, mailbox host writes and a
   per-chunk machine reset.  Every item serves the same requests, so
   every item must end with the same counters.

   The requests are the sweep's own default stream (seed 0xC0FFEE),
   whatever the run's seed: bursts of large requests make the work in a
   chunk vary with the stream seed (the instructions in 4096 requests
   vary by 6% between seeds), which would show up as host speed.

   The traced pass serves the same chunks through the public per-request
   API only ([Workload.gen_chunk], [Server.create], [Server.boot],
   [Server.serve_one]) on one cold server per chunk, checks every
   response against [Workload.expected], and must reproduce the sweep's
   counters and response digest. *)

module Sweep = Serve.Sweep
module Server = Serve.Server
module Scenario = Serve.Scenario
module Workload = Serve.Workload

let n_workers = 8
let isolations = Scenario.[ Mono; Compart ]

(* Requests per point per item — one sweep chunk — and per ablation
   sample. *)
let chunk ~smoke = if smoke then 128 else 1024
let ablation_requests ~smoke = if smoke then 64 else 1024

type st = {
  smoke : bool;
  requests : int;
  expected : int * int * int; (* served, rejected-kind, rejected-trap *)
  mutable serve_one_ns : int list; (* every traced request's host time *)
  traced_counters : (Scenario.isolation, Obs.Counters.t) Hashtbl.t;
  mutable traced_requests : int; (* per point *)
}

(* The first [count] requests of the stream, as the sweep generates them. *)
let requests ~count =
  Workload.gen_chunk ~mix:Sweep.default_cfg.Sweep.mix ~base_seed:Sweep.default_cfg.Sweep.base_seed ~index:0 ~count

(* Set-up: compile and assemble the routers and worker units (the work
   [Scenario]'s memo tables cache), then create and boot one server per
   point and offer it to the sweep's warm pool, keyed as [Sweep.run]
   keys it.  The first set-up's servers fill the pool; later set-ups do
   the same work and their servers are dropped.  Every timed item is
   then a warm reset, as in a long sweep. *)
let setup ~smoke tr =
  let engine = Sweep.default_cfg.Sweep.engine in
  List.iter
    (fun isolation ->
      ignore
        (Tracer.maybe tr "asm.assemble" (fun () ->
             Asm.Assembler.assemble (Scenario.router_source ~isolation ~n:n_workers))
          : Asm.Assembler.program);
      ignore
        (Tracer.maybe tr "serve.build_units" (fun () ->
             Array.init n_workers (Scenario.build_unit ~isolation))
          : Scenario.unit_img array);
      let s = Tracer.maybe tr "serve.create" (fun () -> Server.create ~engine ~isolation ~n:n_workers ()) in
      Tracer.maybe tr "serve.boot" (fun () -> Server.boot s);
      ignore
        (Exp.Pool.Cache.find_or_make Sweep.server_pool (isolation, n_workers, engine, None) (fun () -> s)
          : Server.t))
    isolations;
  (* [Server.create] allocates its machine internally; time one
     [Machine.create] of the same configuration on its own. *)
  Option.iter
    (fun t ->
      ignore (Tracer.span t "machine.create" (fun () -> Machine.create ~config:Server.config ()) : Machine.t))
    tr;
  let reqs = requests ~count:(chunk ~smoke) in
  let count e = Array.fold_left (fun n r -> if Workload.expected r = e then n + 1 else n) 0 reqs in
  {
    smoke;
    requests = Array.length reqs;
    expected =
      (count Workload.Expect_served, count Workload.Expect_reject_kind, count Workload.Expect_reject_trap);
    serve_one_ns = [];
    traced_counters = Hashtbl.create 2;
    traced_requests = 0;
  }

let cfg st =
  {
    Sweep.default_cfg with
    Sweep.requests = st.requests;
    ns = [ n_workers ];
    jobs = 1;
  }

let response_ok req (resp : Server.response) =
  match (Workload.expected req, resp) with
  | Workload.Expect_served, Server.Served _
  | Workload.Expect_reject_kind, Server.Rejected_kind
  | Workload.Expect_reject_trap, Server.Rejected_trap _ ->
      true
  | _ -> false

(* One point's outcome within an item. *)
type point_out = { iso : Scenario.isolation; counters : Obs.Counters.t; digest : int64; failed : int }

(* Untraced item: the sweep itself.  The sweep reports tallies, not
   individual responses, so its check is tally-exact against the
   generator's expectations, plus zero abnormal outcomes.  Only
   [Sweep.run] is timed. *)
let sweep_item st =
  let res, ns, words = Kit.measure (fun () -> Sweep.run (cfg st)) in
  let served, kind, trap = st.expected in
  let points =
    List.map
      (fun (pr : Sweep.point_result) ->
        let off =
          abs (pr.Sweep.served - served)
          + abs (pr.Sweep.rejected_kind - kind)
          + abs (pr.Sweep.rejected_trap - trap)
          + pr.Sweep.abnormal
        in
        let failed = if res.Sweep.digests_match then min st.requests off else st.requests in
        { iso = pr.Sweep.point.Sweep.isolation; counters = pr.Sweep.counters; digest = pr.Sweep.digest; failed })
      res.Sweep.points
  in
  (points, ns, words)

(* A cold server, created and booted through the public API. *)
let cold_server ?tr ?engine ~isolation () =
  let s = Tracer.maybe tr "serve.create" (fun () -> Server.create ?engine ~isolation ~n:n_workers ()) in
  Option.iter (fun t -> Kit.wrap_kernel t s.Server.machine) tr;
  Tracer.maybe tr "serve.boot" (fun () -> Server.boot s);
  s

(* Serve [reqs] on [s] through the per-request API; [on_request] sees
   each request's host ns.  Returns the response digest (folded as the
   sweep folds a chunk's), the counters over the requests, and the
   number of wrong responses. *)
let serve_chunk ?tr ?(on_request = ignore) ~id0 s reqs =
  let before = Server.counters s in
  let digest = ref 0L and failed = ref 0 in
  Array.iteri
    (fun j req ->
      let t0 = Tracer.now_ns () in
      let resp, _latency = Tracer.maybe tr ~id:(id0 + j) "serve.serve_one" (fun () -> Server.serve_one s req) in
      on_request (Tracer.now_ns () - t0);
      if not (response_ok req resp) then incr failed;
      digest := Sweep.fold_digest !digest (Sweep.response_code resp))
    reqs;
  (!digest, Obs.Counters.diff (Server.counters s) before, !failed)

(* One point of a traced item on its cold server [s]. *)
let traced_point st tr rep isolation s =
  let reqs = Tracer.span tr "serve.gen_chunk" (fun () -> requests ~count:st.requests) in
  let digest, counters, failed =
    serve_chunk ~tr ~id0:(rep * st.requests) s reqs ~on_request:(fun ns ->
        st.serve_one_ns <- ns :: st.serve_one_ns)
  in
  Obs.Counters.accumulate
    (match Hashtbl.find_opt st.traced_counters isolation with
    | Some c -> c
    | None ->
        let c = Obs.Counters.create () in
        Hashtbl.replace st.traced_counters isolation c;
        c)
    counters;
  (* A one-chunk sweep point's digest is its chunk's, mixed once more. *)
  { iso = isolation; counters; digest = Sweep.mix64 digest; failed }

(* Traced item: one cold server per point, created and booted outside
   the timing.  Only generating and serving the chunks is timed, which
   is what [Sweep.run] on its warm pool spends its time on, so the traced
   and untraced rates measure the same work. *)
let traced_item st tr rep =
  Tracer.span tr ~id:rep "serve.item" @@ fun () ->
  let outs =
    List.map
      (fun isolation ->
        let s = cold_server ~tr ~isolation () in
        Kit.measure (fun () -> traced_point st tr rep isolation s))
      isolations
  in
  ( List.map (fun (p, _, _) -> p) outs,
    List.fold_left (fun acc (_, ns, _) -> acc + ns) 0 outs,
    List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 outs )

let pass st tr ~budget_ns =
  Kit.repeat_pass ~budget_ns ~min_items:(if st.smoke then 1 else 4) (fun rep ->
      let points, ns, words =
        match tr with
        | None -> sweep_item st
        | Some t ->
            st.traced_requests <- st.traced_requests + st.requests;
            traced_item st t rep
      in
      let sum i = List.fold_left (fun acc p -> acc + Int64.to_int (Obs.Counters.get p.counters i)) 0 points in
      {
        Kit.r_ns = ns;
        r_words = words;
        r_insns = sum Obs.Counters.instret;
        r_sb = sum Obs.Counters.sb_retired;
        r_ops = st.requests * List.length points;
        r_failed = List.fold_left (fun acc p -> acc + p.failed) 0 points;
        r_digest =
          List.fold_left
            (fun h p ->
              Kit.mix (Kit.fold_counters (Kit.fold_string h (Scenario.isolation_name p.iso)) p.counters) p.digest)
            Kit.digest_init points;
      })

(* Ablation slice: the first requests of the stream on a fresh compart
   server; only the requests are timed. *)
let sample st variant =
  let engine = match variant with Kit.Plain_engine -> Some Machine.Plain | _ -> None in
  let s = cold_server ?engine ~isolation:Scenario.Compart () in
  (match variant with
  | Kit.Probe -> Machine.set_probe s.Server.machine (Some (Obs.Probe.create ()))
  | Kit.Toggle_timing -> Machine.set_timing s.Server.machine false
  | Kit.Base | Kit.Plain_engine -> ());
  let reqs = requests ~count:(ablation_requests ~smoke:st.smoke) in
  let ns = ref 0 in
  let (digest, c, failed), _, words =
    Kit.measure (fun () -> serve_chunk ~on_request:(fun d -> ns := !ns + d) ~id0:0 s reqs)
  in
  let retired = Obs.Counters.get c Obs.Counters.instret in
  {
    Kit.s_ns = !ns;
    s_insns = Int64.to_int retired;
    s_words = words;
    arch = Kit.fold_int (Kit.mix (Kit.fold_counters ~skip:Kit.probe_owned digest c) 1L) failed;
    func = Kit.fold_int (Kit.mix (Kit.mix digest retired) 2L) failed;
  }

let extra_rows st tr =
  let mean_ms name = Tracer.mean_ns tr name /. 1e6 in
  let lat = Array.of_list st.serve_one_ns in
  Array.sort compare lat;
  let pct q = float_of_int (Sweep.percentile lat q) /. 1e3 in
  let per_req iso i =
    match Hashtbl.find_opt st.traced_counters iso with
    | Some c when st.traced_requests > 0 ->
        Int64.to_float (Obs.Counters.get c i) /. float_of_int st.traced_requests
    | _ -> 0.0
  in
  let insns_per_req =
    (per_req Scenario.Mono Obs.Counters.instret +. per_req Scenario.Compart Obs.Counters.instret) /. 2.0
  in
  Kit.
    [
      row "serve.create_boot_ms" "ms" (mean_ms "serve.create" +. mean_ms "serve.boot");
      row "serve.gen_chunk_ms" "ms" (mean_ms "serve.gen_chunk");
      row "serve.build_units_ms" "ms" (mean_ms "serve.build_units");
      row "serve.serve_one_us.p50" "us" (pct 0.50);
      row "serve.serve_one_us.p99" "us" (pct 0.99);
      row "serve.serve_one.samples" "count" (float_of_int (Array.length lat));
      row "serve.insns_per_req" "count" insns_per_req;
      row "os.traps_per_req.mono" "count" (per_req Scenario.Mono Obs.Counters.kernel_entries);
      row "os.traps_per_req.compart" "count" (per_req Scenario.Compart Obs.Counters.kernel_entries);
      row "os.ccalls_per_req.compart" "count" (per_req Scenario.Compart Obs.Counters.ccalls);
    ]

let workload ~smoke =
  {
    Kit.setup_reps = (if smoke then 1 else 9);
    setup = setup ~smoke;
    pass;
    exec_span = "serve.serve_one";
    timing = true;
    sample;
    extra_rows;
  }
