(* What the workloads share: the timed-loop discipline,
   set-up timing, the architectural digest, the ablation protocol, and
   the per-layer rows every workload reports.

   A workload is a record of closures over its own state ['st]:
   [setup] builds everything the timed phase needs, [pass] runs the
   timed phase for a time budget (with or without a tracer — the same
   code either way), and [sample] runs a fixed slice of the work under
   an ablation variant.  [run] sequences them. *)

type row = { name : string; value : float; unit : string }

let row name unit value = { name; value; unit }

type ctx = {
  seed : int;
  budget_ns : int; (* length of the timed phase *)
  smoke : bool; (* tiny inputs: the @perf-smoke API check *)
  trace : bool;
}

(* One timed pass.  The rates are the fastest the pass saw: contention
   from other tenants of a shared host (memory bandwidth, caches) only
   ever slows the simulator down, in bursts that can cover a whole run,
   so the fastest time of identical work tracks the host's uncontended
   speed, where a median moves with the share of the run that fell in a
   burst.  Serve and fuzz repeat one identical item and take its fastest
   time; Olden takes, for every fixed slice of every program, the
   fastest time any round ran it in. *)
type pass = {
  items : int; (* operations attempted: programs or requests *)
  failed : int; (* operations that failed a correctness check *)
  insns : int; (* simulated instructions retired inside timed calls *)
  sb_retired : int; (* of which retired inside superblocks *)
  sim_mips : float;
  items_per_s : float;
  words_per_insn : float; (* Gc.minor_words / insn over the reference items *)
  digest : int64; (* architectural digest of the reference items *)
  rss_mb : float; (* peak resident set after set-up and the first item *)
}

(* Ablation variants: each differs from the workload's own
   configuration in exactly one host-side knob. *)
type variant = Base | Plain_engine | Probe | Toggle_timing

(* One ablation sample: host cost plus two fingerprints, [arch]
   (architectural counters except probe-owned ones, and outputs) and
   [func] (instruction count and outputs, which survive a timing toggle). *)
type sample = { s_ns : int; s_insns : int; s_words : float; arch : int64; func : int64 }

type 'st workload = {
  setup_reps : int;
  setup : Tracer.t option -> 'st;
  pass : 'st -> Tracer.t option -> budget_ns:int -> pass;
  exec_span : string; (* the span whose self time is simulation *)
  timing : bool; (* does the workload run the hierarchy model? *)
  sample : 'st -> variant -> sample;
  extra_rows : 'st -> Tracer.t -> row list; (* workload-specific table rows *)
}

(* [layers] are the per-layer metrics every workload reports; [extras]
   are the workload-specific rows of the printed table. *)
type result = {
  attempted : int;
  failed : int;
  setup_s : float;
  main : pass;
  layers : row list;
  extras : row list;
  tracer : Tracer.t option;
}

let seconds_of_ns ns = float_of_int ns /. 1e9

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Call [item i] for i = 0, 1, ... until the timed ns the calls report
   reach [budget_ns] and at least [min_items] have run.  Returns the
   number of items run and the peak resident set after the first: later
   items only add garbage the GC has not reclaimed yet, and how many
   there are depends on the host's speed. *)
let timed_loop ~budget_ns ~min_items item =
  let spent = ref 0 and i = ref 0 and rss = ref nan in
  while !i < min_items || !spent < budget_ns do
    spent := !spent + item !i;
    if !i = 0 then rss := peak_rss_mb ();
    incr i
  done;
  (!i, !rss)

(* Time [f] and the minor words it allocates. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Tracer.now_ns () in
  let v = f () in
  let t1 = Tracer.now_ns () in
  let w1 = Gc.minor_words () in
  (v, t1 - t0, w1 -. w0)

let mips ~insns ~ns = if ns <= 0 then 0.0 else float_of_int insns *. 1e3 /. float_of_int ns

(* One run of a repeated work item. *)
type rep = {
  r_ns : int;
  r_words : float;
  r_insns : int;
  r_sb : int;
  r_ops : int; (* operations: requests or programs *)
  r_failed : int;
  r_digest : int64; (* architectural digest: every rep must match rep 0 *)
}

(* Repeat [item] (the same work every time) until the budget is spent and
   report it at its fastest. *)
let repeat_pass ~budget_ns ~min_items item =
  let reps = ref [] in
  let _, rss_mb =
    timed_loop ~budget_ns ~min_items (fun i ->
        let r = item i in
        reps := r :: !reps;
        r.r_ns)
  in
  let reps = List.rev !reps in
  let r0 = List.hd reps in
  let best = List.fold_left (fun acc r -> min acc r.r_ns) max_int reps in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  {
    items = sum (fun r -> r.r_ops);
    failed = sum (fun r -> if Int64.equal r.r_digest r0.r_digest then r.r_failed else r.r_ops);
    insns = sum (fun r -> r.r_insns);
    sb_retired = sum (fun r -> r.r_sb);
    sim_mips = mips ~insns:r0.r_insns ~ns:best;
    items_per_s = float_of_int r0.r_ops *. 1e9 /. float_of_int best;
    words_per_insn = r0.r_words /. float_of_int r0.r_insns;
    digest = r0.r_digest;
    rss_mb;
  }

(* --- the architectural digest ------------------------------------------- *)

let mix h v =
  let h = Int64.mul (Int64.logxor h v) 0xFF51_AFD7_ED55_8CCDL in
  Int64.logxor h (Int64.shift_right_logical h 33)

let digest_init = 0x9E37_79B9_7F4A_7C15L
let fold_int h i = mix h (Int64.of_int i)
let fold_string h s = String.fold_left (fun h c -> fold_int h (Char.code c)) (fold_int h (String.length s)) s

(* Counters that describe the host, not the simulated machine: engine
   telemetry and profiler samples. *)
let host_only =
  Obs.Counters.[ samples; sb_translations; sb_dispatches; sb_retired ]

(* Counters only an attached probe fills in. *)
let probe_owned = Obs.Counters.[ cap_ops; cap_loads; cap_stores; branches ]

let fold_counters ?(skip = []) h (c : Obs.Counters.t) =
  let h = ref h in
  for i = 0 to Obs.Counters.count - 1 do
    if not (List.mem i host_only || List.mem i skip) then h := mix !h (Obs.Counters.get c i)
  done;
  !h

(* --- shared plumbing ------------------------------------------------------ *)

(* Route the machine's kernel closure through an [os.trap] span: every
   exception the simulated program raises (syscall, CCall, fault) is
   timed as a child of whatever span was open. *)
let wrap_kernel tr (m : Machine.t) =
  let k = m.Machine.kernel in
  Machine.set_kernel m (fun m ctx -> Tracer.span tr "os.trap" (fun () -> k m ctx))

(* Run [setup] [reps] times and return the median set-up time and the
   last rep's state.  A full major collection before each rep and after
   the last (outside the timing) drops the previous rep's machines, so
   the resident set and the timed phase do not depend on when the GC
   would have got to them. *)
let measure_setup ~reps setup =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    last := None;
    Gc.full_major ();
    let t0 = Tracer.now_ns () in
    let st = setup () in
    times := seconds_of_ns (Tracer.now_ns () - t0) :: !times;
    last := Some st
  done;
  Gc.full_major ();
  match !last with Some st -> (Stats.median !times, st) | None -> invalid_arg "measure_setup: reps"

(* --- the run ------------------------------------------------------------- *)

let per_insn ns insns = if insns = 0 then 0.0 else float_of_int ns /. float_of_int insns

(* The ablation rows.  Each round runs the four variants back to back
   on the same slice of work; a delta is the median over rounds of the
   variant's ns/insn minus that round's [Base] ns/insn, so a slow moment
   spoils one round, not the result.  A variant whose fingerprint
   differs from [Base] is a correctness failure: the engines, the probe,
   and the timing model must not change what the program computes. *)
let ablate ~rounds w st =
  let ns s = per_insn s.s_ns s.s_insns in
  let words s = if s.s_insns = 0 then 0.0 else s.s_words /. float_of_int s.s_insns in
  let rounds =
    List.init rounds (fun _ ->
        let base = w.sample st Base in
        let plain = w.sample st Plain_engine in
        let probe = w.sample st Probe in
        let toggled = w.sample st Toggle_timing in
        let timed, untimed = if w.timing then (base, toggled) else (toggled, base) in
        let ok =
          Int64.equal plain.arch base.arch
          && Int64.equal probe.arch base.arch
          && Int64.equal toggled.func base.func
        in
        ( [ ns plain -. ns base; ns probe -. ns base; ns timed -. ns untimed; words timed -. words untimed ],
          ok ))
  in
  let col i = Stats.median (List.map (fun (d, _) -> List.nth d i) rounds) in
  ( [
      row "machine.dispatch_ns_per_insn" "ns" (col 0);
      row "obs.probe_ns_per_insn" "ns" (col 1);
      row "mem.hier_ns_per_insn" "ns" (col 2);
      row "mem.hier_minor_words_per_insn" "words" (col 3);
    ],
    List.length (List.filter (fun (_, ok) -> not ok) rounds) )

let run ctx w =
  let tr = if ctx.trace then Some (Tracer.create ()) else None in
  let setup_s, st = measure_setup ~reps:w.setup_reps (fun () -> w.setup tr) in
  if not ctx.trace then begin
    let p = w.pass st None ~budget_ns:ctx.budget_ns in
    { attempted = p.items; failed = p.failed; setup_s; main = p; layers = []; extras = []; tracer = None }
  end
  else begin
    let t = Option.get tr in
    let half = ctx.budget_ns / 2 in
    let u = w.pass st None ~budget_ns:half in
    let traced = w.pass st tr ~budget_ns:half in
    let rounds = if ctx.smoke then 1 else 3 in
    let abl_rows, abl_failed = ablate ~rounds w st in
    let extra = w.extra_rows st t in
    (* The traced pass replays the untraced pass's reference items, so
       their digests must agree: tracing must not perturb the machine. *)
    let digest_failed = if Int64.equal u.digest traced.digest then 0 else 1 in
    let gc = Gc.quick_stat () in
    let rows =
      [
        row "machine.create_ms" "ms" (Tracer.mean_ns t "machine.create" /. 1e6);
        row "machine.ns_per_insn" "ns" (per_insn (Tracer.self_ns t w.exec_span) traced.insns);
        row "machine.minor_words_per_insn" "words" u.words_per_insn;
        row "machine.sb_coverage" "ratio"
          (if traced.insns = 0 then 0.0 else float_of_int traced.sb_retired /. float_of_int traced.insns);
      ]
      @ abl_rows
      @ [
          (* [os.trap] spans have no children: their self time is their time. *)
          row "os.trap_us" "us" (Tracer.mean_ns t "os.trap" /. 1e3);
          row "gc.major_collections" "count" (float_of_int gc.Gc.major_collections);
          row "gc.top_heap_mb" "MiB" (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
          row "trace.overhead_frac" "ratio"
            (if traced.sim_mips > 0.0 then (u.sim_mips /. traced.sim_mips) -. 1.0 else 0.0);
        ]
    in
    {
      attempted = u.items + traced.items + rounds;
      failed = u.failed + traced.failed + abl_failed + digest_failed;
      setup_s;
      main = u;
      layers = rows;
      extras = extra;
      tracer = tr;
    }
  end
