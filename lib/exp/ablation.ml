(* Ablation experiments for the design choices DESIGN.md calls out.

   1. Capability compression (Section 8: "These results reconfirm that
      CHERI will benefit from capability compression"): the same Olden
      benchmarks compiled for the 256-bit and the 128-bit capability
      machines, overheads vs. the unprotected baseline.

   2. Tag-cache sizing (Section 4.2: the 8 KB tag cache "does not
      noticeably degrade performance"): sweep the tag-cache capacity and
      measure the fraction of DRAM transactions that need an extra
      tag-table fill.

   3. Memory-latency sensitivity: the Figure 5 plateau as a function of
      the DRAM penalty, showing the slowdown is miss-driven. *)

let run_to_exit_0 k asm =
  match Os.Kernel.run_program ~max_insns:200_000_000L k asm with
  | Machine.Exited 0, _ -> ()
  | r, _ -> failwith (Fmt.str "ablation run: %a" Machine.pp_run_result r)

(* --- 1: capability width ---------------------------------------------------- *)

type width_row = {
  bench : string;
  cheri256_total_pct : float;
  cheri128_total_pct : float;
  heap256_kb : int;
  heap128_kb : int;
}

let compression ?(benches = [ ("treeadd", 12); ("bisort", 10); ("mst", 96); ("perimeter", 7) ])
    ?jobs () =
  Pool.map ?jobs
    (fun (bench, param) ->
      let src = List.assoc bench Olden.Minic_src.all in
      let legacy = Bench_run.run ~bench ~mode:Minic.Layout.Legacy ~param src in
      let c256 = Bench_run.run ~bench ~mode:Minic.Layout.Cheri ~param src in
      let c128 = Bench_run.run ~bench ~mode:Minic.Layout.Cheri128 ~param src in
      {
        bench;
        cheri256_total_pct =
          Bench_run.pct_overhead ~baseline:legacy.Bench_run.cycles c256.Bench_run.cycles;
        cheri128_total_pct =
          Bench_run.pct_overhead ~baseline:legacy.Bench_run.cycles c128.Bench_run.cycles;
        heap256_kb = Int64.to_int (Int64.div c256.Bench_run.heap_bytes 1024L);
        heap128_kb = Int64.to_int (Int64.div c128.Bench_run.heap_bytes 1024L);
      })
    benches

(* --- 2: tag-cache size -------------------------------------------------------- *)

type tag_row = {
  tag_cache_bytes : int;
  tag_fills : int; (* extra DRAM transactions for tag lines *)
  data_fills : int; (* DRAM transactions for data lines *)
  fill_ratio_pct : float;
}

let tag_cache_sweep ?(sizes = [ 256; 1024; 4096; 8192; 16384 ]) ?jobs () =
  Pool.map ?jobs
    (fun size ->
      let config =
        {
          Machine.default_config with
          Machine.hierarchy = { Mem.Hierarchy.default_config with Mem.Hierarchy.tag_cache_size = size };
        }
      in
      let m = Machine.create ~config () in
      let k = Os.Kernel.attach m in
      let src =
        Olden.Minic_src.instantiate (List.assoc "treeadd" Olden.Minic_src.all) ~param:13
      in
      let asm = Minic.Driver.compile ~mode:Minic.Layout.Cheri src in
      run_to_exit_0 k asm;
      (* The fill ratio comes straight off the obs counter file rather
         than reaching into the hierarchy's internals. *)
      let c = Machine.read_counters m in
      let tag_fills = Int64.to_int (Obs.Counters.get c Obs.Counters.tag_dram_fills) in
      let l2_misses = Int64.to_int (Obs.Counters.get c Obs.Counters.l2_misses) in
      {
        tag_cache_bytes = size;
        tag_fills;
        data_fills = l2_misses;
        fill_ratio_pct =
          (if l2_misses = 0 then 0.0
           else 100.0 *. float_of_int tag_fills /. float_of_int l2_misses);
      })
    sizes

(* --- 3: DRAM latency sensitivity ------------------------------------------------ *)

type latency_row = { dram_cycles : int; treeadd_slowdown_pct : float }

let latency_sweep ?(latencies = [ 4; 12; 30; 60 ]) ?jobs () =
  Pool.map ?jobs
    (fun dram ->
      let config =
        {
          Machine.default_config with
          Machine.hierarchy = { Mem.Hierarchy.default_config with Mem.Hierarchy.dram_cycles = dram };
        }
      in
      let run mode =
        let src =
          Olden.Minic_src.instantiate ~iters:2 (List.assoc "treeadd" Olden.Minic_src.all)
            ~param:13
        in
        let asm = Minic.Driver.compile ~mode src in
        let m = Machine.create ~config () in
        let k = Os.Kernel.attach m in
        run_to_exit_0 k asm;
        Int64.of_int m.Machine.cycles
      in
      let legacy = run Minic.Layout.Legacy in
      let cheri = run Minic.Layout.Cheri in
      { dram_cycles = dram; treeadd_slowdown_pct = Bench_run.pct_overhead ~baseline:legacy cheri })
    latencies
