(* The Olden workloads: the paper's Figure 4 experiment (bisort, mst,
   treeadd, perimeter, each in the legacy, softcheck, cheri and cheri128
   pointer modes) replayed as host-cost measurements.

   Sizes are the fig4 defaults ([Exp.Fig4.benchmarks]): every heap
   overflows the modelled 64 KB L2, and each of the 16 programs runs for
   0.1-0.8 s.  The inputs are fixed by these parameters; the seed does
   not change them.

   Compiling, assembling and booting a program are set-up; only
   [Machine.run_result] is timed.  Each work item boots a fresh machine
   (outside the timing), so every run of a program starts from the
   same architectural state and must end with the same counters. *)

let sizes ~smoke =
  if smoke then [ ("bisort", 6); ("mst", 24); ("treeadd", 7); ("perimeter", 5) ]
  else List.map (fun (bench, param, _paper) -> (bench, param)) Exp.Fig4.benchmarks

let modes = Minic.Layout.[ Legacy; Softcheck; Cheri; Cheri128 ]

(* The program the ablations replay, once per mode. *)
let ablation_bench = "treeadd"

let max_insns = 2_000_000_000

(* A run is timed in slices of this many instructions (~40 ms).  Runs
   are deterministic, so slice k of a program is the same work in every
   round, and the pass keeps each slice's fastest time. *)
let slice_insns = 500_000L

type point = { bench : string; param : int; mode : Minic.Layout.mode; program : Asm.Assembler.program }

type st = {
  smoke : bool;
  points : point array;
  timing : bool;
  outputs : (string, string) Hashtbl.t; (* bench -> console output every mode must print *)
  ref_arch : int64 option array; (* per point: architectural digest of its first run *)
  ref_counters : Obs.Counters.t option array;
}

(* The fig4 machine for the mode.  Smoke runs boot 24 MiB machines
   instead: their toy heaps fit, and booting stays cheap. *)
let create_machine ~smoke mode =
  if not smoke then Exp.Bench_run.machine_for mode
  else
    let cap_width = if mode = Minic.Layout.Cheri128 then Machine.W128 else Machine.W256 in
    Machine.create ~config:{ Machine.default_config with Machine.mem_size = 24 lsl 20; cap_width } ()

let boot ?tr ?engine ?(probe = false) ~smoke ~timing p =
  let m = Tracer.maybe tr "machine.create" (fun () -> create_machine ~smoke p.mode) in
  Option.iter (Machine.set_engine m) engine;
  Machine.set_timing m timing;
  if probe then Machine.set_probe m (Some (Obs.Probe.create ()));
  let k = Tracer.maybe tr "os.attach" (fun () -> Os.Kernel.attach m) in
  Tracer.maybe tr "os.exec" (fun () -> Os.Kernel.exec k p.program);
  (m, k)

let setup ~smoke ~timing tr =
  let points =
    List.concat_map
      (fun (bench, param) ->
        let src = Olden.Minic_src.instantiate (List.assoc bench Olden.Minic_src.all) ~param in
        List.map
          (fun mode ->
            let asm = Tracer.maybe tr "minic.compile" (fun () -> Minic.Driver.compile ~mode src) in
            let program = Tracer.maybe tr "asm.assemble" (fun () -> Asm.Assembler.assemble asm) in
            let p = { bench; param; mode; program } in
            ignore (boot ?tr ~smoke ~timing p : Machine.t * Os.Kernel.t);
            p)
          modes)
      (sizes ~smoke)
    |> Array.of_list
  in
  let n = Array.length points in
  { smoke; points; timing; outputs = Hashtbl.create 4; ref_arch = Array.make n None; ref_counters = Array.make n None }

(* Run [m] to the end, timing each slice; returns the outcome and the
   slices' host ns in order. *)
let run_sliced (m : Machine.t) =
  let rec go acc =
    let t0 = Tracer.now_ns () in
    let r = Machine.run_result ~max_insns:slice_insns m in
    let acc = (Tracer.now_ns () - t0) :: acc in
    match r with
    | Machine.Budget_exhausted _ when m.Machine.instret < max_insns -> go acc
    | r -> (r, Array.of_list (List.rev acc))
  in
  go []

(* Boot [p] and time its run.  Returns the outcome, the slices' host ns,
   minor words, the final counter file and the console output. *)
let run_point ?tr ?engine ?probe ~smoke ~timing p =
  let m, k = boot ?tr ?engine ?probe ~smoke ~timing p in
  Option.iter (fun t -> Kit.wrap_kernel t m) tr;
  let (r, slices), _, words = Kit.measure (fun () -> Tracer.maybe tr "machine.run" (fun () -> run_sliced m)) in
  (r, slices, words, Os.Kernel.read_counters k, Os.Kernel.console k)

let exited_0 = function Machine.Exited 0 -> true | _ -> false

let arch_digest ?skip p counters output =
  let h = Kit.fold_string Kit.digest_init (p.bench ^ "/" ^ Minic.Layout.mode_name p.mode) in
  Kit.fold_string (Kit.fold_counters ?skip h counters) output

(* The result every mode must print; treeadd's is known in closed form. *)
let output_ok st p output =
  let known =
    if p.bench = "treeadd" then output = string_of_int ((1 lsl p.param) - 1) ^ "\n" else true
  in
  match Hashtbl.find_opt st.outputs p.bench with
  | Some o -> known && o = output
  | None ->
      Hashtbl.replace st.outputs p.bench output;
      known

let pass st tr ~budget_ns =
  let n = Array.length st.points in
  let best = Array.make n [||] in (* per point: each slice's fastest ns *)
  let first = Array.make n None in
  let failed = ref 0 and insns = ref 0 and sb = ref 0 in
  let items, rss_mb =
    Kit.timed_loop ~budget_ns ~min_items:n (fun i ->
        let j = i mod n in
        let p = st.points.(j) in
        let r, slices, words, c, output =
          Tracer.maybe tr ~id:i "olden.item" (fun () -> run_point ?tr ~smoke:st.smoke ~timing:st.timing p)
        in
        let arch = arch_digest p c output in
        let ok =
          exited_0 r
          && output_ok st p output
          &&
          match st.ref_arch.(j) with
          | Some a -> Int64.equal a arch
          | None ->
              st.ref_arch.(j) <- Some arch;
              st.ref_counters.(j) <- Some c;
              true
        in
        if not ok then incr failed
        else if best.(j) = [||] then best.(j) <- slices
        else Array.iteri (fun k t -> if t < best.(j).(k) then best.(j).(k) <- t) slices;
        let retired = Int64.to_int (Obs.Counters.get c Obs.Counters.instret) in
        insns := !insns + retired;
        sb := !sb + Int64.to_int (Obs.Counters.get c Obs.Counters.sb_retired);
        if first.(j) = None then first.(j) <- Some (retired, words, arch);
        Array.fold_left ( + ) 0 slices)
  in
  (* One round's instructions over the sum of every slice's fastest time:
     the rate of a full round, whichever program the budget ended on. *)
  let round_insns = ref 0 and round_words = ref 0.0 and round_ns = ref 0 in
  let digest = ref Kit.digest_init in
  Array.iteri
    (fun j f ->
      match f with
      | Some (retired, words, arch) ->
          round_insns := !round_insns + retired;
          round_words := !round_words +. words;
          round_ns := !round_ns + Array.fold_left ( + ) 0 best.(j);
          digest := Kit.mix !digest arch
      | None -> ())
    first;
  {
    Kit.items;
    failed = !failed;
    insns = !insns;
    sb_retired = !sb;
    sim_mips = Kit.mips ~insns:!round_insns ~ns:!round_ns;
    items_per_s = float_of_int n *. 1e9 /. float_of_int !round_ns;
    words_per_insn = !round_words /. float_of_int !round_insns;
    digest = !digest;
    rss_mb;
  }

let sample st variant =
  let engine, probe, timing =
    match variant with
    | Kit.Base -> (None, false, st.timing)
    | Kit.Plain_engine -> (Some Machine.Plain, false, st.timing)
    | Kit.Probe -> (None, true, st.timing)
    | Kit.Toggle_timing -> (None, false, not st.timing)
  in
  Array.fold_left
    (fun (acc : Kit.sample) p ->
      if p.bench <> ablation_bench then acc
      else begin
        let r, slices, words, c, output = run_point ?engine ~probe ~smoke:st.smoke ~timing p in
        let retired = Obs.Counters.get c Obs.Counters.instret in
        let ok = exited_0 r in
        {
          Kit.s_ns = acc.s_ns + Array.fold_left ( + ) 0 slices;
          s_insns = acc.s_insns + Int64.to_int retired;
          s_words = acc.s_words +. words;
          arch = Kit.fold_int (Kit.mix acc.arch (arch_digest ~skip:Kit.probe_owned p c output)) (Bool.to_int ok);
          func = Kit.fold_string (Kit.mix acc.func retired) output;
        }
      end)
    { Kit.s_ns = 0; s_insns = 0; s_words = 0.0; arch = Kit.digest_init; func = Kit.digest_init }
    st.points

let extra_rows st tr =
  let total = Obs.Counters.create () in
  Array.iter (Option.iter (Obs.Counters.accumulate total)) st.ref_counters;
  let get i = Int64.to_float (Obs.Counters.get total i) in
  let pki i = 1000.0 *. get i /. get Obs.Counters.instret in
  let mean_ms name = Tracer.mean_ns tr name /. 1e6 in
  Kit.
    [
      row "minic.compile_ms" "ms" (mean_ms "minic.compile");
      row "asm.assemble_ms" "ms" (mean_ms "asm.assemble");
      row "os.exec_ms" "ms" (mean_ms "os.exec");
      row "os.traps_per_kinsn" "count" (pki Obs.Counters.kernel_entries);
      row "mem.l1d_mpki" "count" (pki Obs.Counters.l1d_misses);
      row "mem.l2_mpki" "count" (pki Obs.Counters.l2_misses);
      row "mem.tlb_mpki" "count" (pki Obs.Counters.tlb_misses);
      row "mem.tag_dram_fills_pki" "count" (pki Obs.Counters.tag_dram_fills);
    ]

let workload ~smoke ~timing =
  {
    Kit.setup_reps = (if smoke then 1 else 5);
    setup = setup ~smoke ~timing;
    pass;
    exec_span = "machine.run";
    timing;
    sample;
    extra_rows;
  }
