(* One request-serving machine instance: boot the router and its worker
   units on a fresh simulated machine, then replay requests one at a time
   through the mailbox.

   The host plays the network front-end: it writes each request's header
   and payload into the mailbox region (DMA-like physical writes — no
   cycles charged, no architectural state touched), points the machine at
   the router's [serve] entry, and runs until the router exits with the
   response code.  Malformed requests must be rejected without
   terminating the server loop: an out-of-range kind is bounced by the
   router itself, and a lying declared_len trips the worker's bounded
   payload capability — the kernel fault handler converts the trap into a
   rejection, and the host unwinds the trusted stack to recover the
   router's domain. *)

open Beri

type response =
  | Served of int (* response code from the worker *)
  | Rejected_kind (* router bounced it before any domain crossing *)
  | Rejected_trap of Cp0.exc * Cap.Cause.t (* capability trap inside the worker *)
  | Abnormal of string (* should never happen; the smoke tallies pin it at 0 *)

(* The response stream's small-integer encoding, shared by the sweep's
   cross-isolation digest and the trace's request-end marker. *)
let response_code = function
  | Served c -> c + 10
  | Rejected_kind -> 1
  | Rejected_trap _ -> 2
  | Abnormal _ -> 3

type t = {
  machine : Machine.t;
  kernel : Os.Kernel.t;
  isolation : Scenario.isolation;
  n_workers : int;
  mutable serve_pc : int64;
  stack_ptr : int64;
  units : Scenario.unit_img array;
  (* The observability scope of the *current chunk*: mutable because a
     pooled server gets a fresh scope from [reset] for every chunk it
     serves, exactly as a cold-booted server gets fresh ones from
     [create] — warm and cold chunks observe through identical, empty
     collectors. *)
  mutable span : Obs.Span.t; (* kernel "ccall" span: in-compartment time *)
  mutable crossing : Obs.Hist.t; (* per-crossing duration histogram (cycles) *)
  mutable trace : Obs.Trace.t option; (* cycle-timestamped request/kernel timeline *)
  mutable series : Obs.Series.t option; (* retirement-driven counter time-series *)
  mutable last_trap : (Cp0.exc * Cap.Cause.t) option;
  mutable checkpoint : (Machine.checkpoint * Os.Kernel.checkpoint * Obs.Series.t option) option;
      (* the post-boot architectural state [reset] rewinds to, plus a
         frozen copy of the boot-period counter series: a cold server's
         sampler runs from [create], so its chunk series opens with the
         boot samples — every warm chunk clones this prefix (and the
         sampler's delta base / next boundary) to match byte-for-byte *)
}

let request_budget = 2_000_000L
let boot_budget = 1_000_000L

let config = { Machine.default_config with Machine.mem_size = Scenario.mem_size }

(* Install a fresh per-chunk observability scope: a new crossing
   histogram and "ccall" span, the chunk's trace collector (or none),
   and the series step hook (or none).  Shared by [create] and [reset]
   so a warm chunk starts with exactly the collectors a cold one gets. *)
let install_obs ~trace ~series t =
  let crossing = Obs.Hist.create ~name:"domain crossing [cycles]" () in
  let span =
    Obs.Span.create ~durations:crossing ~read:(fun () -> Os.Kernel.read_counters t.kernel) ()
  in
  (* The kernel records CCall/CReturn/trap trace events itself (it owns
     the cycle of each transition), so the span does not get the trace —
     phase events belong to coarser phases, not kernel crossings. *)
  (match trace with
  | Some tr ->
      Obs.Trace.set_labels tr (Scenario.otype_labels ~n:t.n_workers);
      (* Only sampled requests record: stay disarmed through boot and
         until the first [begin_request]. *)
      Obs.Trace.skip_request tr
  | None -> ());
  Os.Kernel.set_obs ~span ?trace t.kernel;
  (match series with
  | Some s ->
      Machine.set_step_hook t.machine
        (Some (fun m -> Obs.Series.tick s ~instret:m.Machine.instret))
  | None -> Machine.set_step_hook t.machine None);
  t.span <- span;
  t.crossing <- crossing;
  t.trace <- trace;
  t.series <- series

let create ?(engine = Machine.Superblock) ?attrib ?trace ?series_interval ~isolation ~n () =
  if n < 1 || n > Scenario.max_workers then invalid_arg "Server.create: n";
  if n land (n - 1) <> 0 then
    (* serve_one routes with [route land (n_workers - 1)], which silently
       misroutes for a non-power-of-two worker count. *)
    invalid_arg "Server.create: n must be a power of two";
  let machine = Machine.create ~config () in
  Machine.set_engine machine engine;
  (* An attribution table labels the scenario's regions so misses come
     back per compartment; sweeps never pass one (the probe perturbs
     nothing architectural, but there is no reason to pay for it). *)
  (match attrib with
  | Some a ->
      Obs.Attrib.set_labels a (Scenario.region_labels ~n);
      Machine.set_probe machine (Some (Obs.Probe.create ~attrib:a ()))
  | None -> ());
  let kernel = Os.Kernel.attach machine in
  let t =
    {
      machine;
      kernel;
      isolation;
      n_workers = n;
      serve_pc = 0L;
      stack_ptr = Int64.sub kernel.Os.Kernel.stack_top 64L;
      units = Scenario.units ~isolation ~n;
      span = Obs.Span.create ~read:(fun () -> Os.Kernel.read_counters kernel) ();
      crossing = Obs.Hist.create ~name:"domain crossing [cycles]" ();
      trace = None;
      series = None;
      last_trap = None;
      checkpoint = None;
    }
  in
  let series =
    Option.map
      (fun interval ->
        Obs.Series.create ~interval ~read:(fun () -> Os.Kernel.read_counters kernel) ())
      series_interval
  in
  install_obs ~trace ~series t;
  Os.Kernel.set_fault_handler kernel (fun _k fault ->
      t.last_trap <- Some (fault.Os.Kernel.exc, fault.Os.Kernel.capcause);
      Machine.Halt (-2));
  t

(* Write a unit's heap-arena seeds: a fresh deterministic bump-allocator
   arena per request, so [malloc] never reaches the sbrk path. *)
let seed_heap t (u : Scenario.unit_img) =
  Mem.Phys.write_u64 t.machine.Machine.phys u.Scenario.heap_cur_addr u.Scenario.heap_cur_val;
  Mem.Phys.write_u64 t.machine.Machine.phys u.Scenario.heap_end_addr u.Scenario.heap_end_val

(* Boot: load the router via the kernel (full-space delegation), install
   the worker units, and run the router's [_start] — in compartment mode
   the trusted loader that seals the worker capability pairs. *)
let boot t =
  let m = t.machine in
  let router = Scenario.router_program ~isolation:t.isolation ~n:t.n_workers in
  Os.Kernel.exec t.kernel router;
  Machine.map_identity m ~vaddr:Scenario.mailbox ~len:0x1_0000 Mem.Tlb.prot_rwx;
  Array.iteri
    (fun i u ->
      Machine.map_identity m
        ~vaddr:(Int64.of_int (Scenario.code_base i))
        ~len:Scenario.code_len Mem.Tlb.prot_rwx;
      Machine.map_identity m
        ~vaddr:(Int64.of_int (Scenario.data_base i))
        ~len:Scenario.data_len Mem.Tlb.prot_rwx;
      List.iter
        (fun (addr, bytes) -> Mem.Phys.write_bytes m.Machine.phys addr (Bytes.of_string bytes))
        u.Scenario.segments;
      seed_heap t u)
    t.units;
  Machine.invalidate_icache m;
  (match Machine.run_result ~max_insns:boot_budget m with
  | Machine.Exited 0 -> ()
  | r -> Fmt.failwith "Server.boot: router boot failed: %a" Machine.pp_run_result r);
  (match Asm.Assembler.symbol router "serve" with
  | Some pc -> t.serve_pc <- pc
  | None -> invalid_arg "Server.boot: router lacks a serve symbol");
  (* Arm the fast-reset point: everything architectural as of this
     instant, plus the boot-period sample prefix each warm chunk's
     series must open with.  [reset] rewinds to here in O(dirty pages). *)
  t.checkpoint <-
    Some (Machine.checkpoint m, Os.Kernel.checkpoint t.kernel, Option.map Obs.Series.copy t.series)

(* Rewind a booted server to its post-boot state and hand it a fresh
   observability scope: the warm-pool replacement for [create] + [boot].
   Architectural state (registers, memory, tags, TLB, cache models,
   counters) returns bit-exactly to the checkpoint, so a chunk served
   after [reset] produces byte-identical responses, latencies, counters,
   and trace events to one served from a cold boot; the host-side decode
   cache and superblock translations deliberately stay warm (they charge
   identical architectural costs on hits, and [Machine.restore]
   invalidates them if any rewound page intersects decoded code). *)
let reset ?trace ?series_interval t =
  match t.checkpoint with
  | None -> invalid_arg "Server.reset: server was never booted"
  | Some (mck, kck, boot_series) ->
      ignore (Machine.restore t.machine mck : int);
      Os.Kernel.restore t.kernel kck;
      t.last_trap <- None;
      (* A cold chunk's series starts sampling at [create], so its
         timeline opens with the boot-period samples; a warm chunk gets
         the same prefix — and the same sampler state — by cloning the
         checkpointed boot series.  That only exists if the server was
         created with a sampler at the same interval, so a pool must
         boot its servers with the interval its chunks will use. *)
      let series =
        match series_interval with
        | None -> None
        | Some interval -> (
            match boot_series with
            | Some bs when Obs.Series.interval bs = interval -> Some (Obs.Series.copy bs)
            | Some _ -> invalid_arg "Server.reset: series interval differs from boot"
            | None -> invalid_arg "Server.reset: server was booted without a series")
      in
      install_obs ~trace ~series t

(* --- the request path ----------------------------------------------------- *)

let write_request t (req : Workload.request) =
  let phys = t.machine.Machine.phys in
  Mem.Phys.write_u64 phys Scenario.mailbox (Int64.of_int req.Workload.kind);
  Mem.Phys.write_u64 phys (Int64.add Scenario.mailbox 8L) (Int64.of_int req.Workload.declared_len);
  Mem.Phys.write_u64 phys (Int64.add Scenario.mailbox 16L) (Int64.of_int req.Workload.actual_len);
  Mem.Phys.write_u64 phys (Int64.add Scenario.mailbox 24L) (Int64.of_int req.Workload.route);
  for i = 0 to req.Workload.actual_len - 1 do
    Mem.Phys.write_u64 phys
      (Int64.add Scenario.payload_addr (Int64.of_int (i * 8)))
      (Workload.payload_word req.Workload.payload_seed i)
  done

(* Serve one request; returns the response and its latency in simulated
   cycles.  The server loop survives every malformed request: traps
   unwind the trusted stack and restore the router's domain. *)
let serve_one ?trace_id t (req : Workload.request) =
  let m = t.machine in
  write_request t req;
  let w = req.Workload.route land (t.n_workers - 1) in
  seed_heap t t.units.(w);
  Machine.set_pc m t.serve_pc;
  Machine.set_gpr m Regs.sp t.stack_ptr;
  m.Machine.cp0.Cp0.exl <- false;
  t.last_trap <- None;
  let c0 = m.Machine.cycles in
  (match t.trace with
  | Some tr -> (
      match trace_id with
      | Some id ->
          Obs.Trace.begin_request tr ~ts:c0 ~id ~kind:req.Workload.kind
            ~declared:req.Workload.declared_len ~actual:req.Workload.actual_len
            ~route:req.Workload.route ~worker:w
      | None -> Obs.Trace.skip_request tr)
  | None -> ());
  let result = Machine.run_result ~max_insns:request_budget m in
  if Os.Kernel.trusted_stack_depth t.kernel > 0 then Os.Kernel.unwind_trusted_stack t.kernel;
  let latency = m.Machine.cycles - c0 in
  let response =
    match result with
    | Machine.Exited code when code >= 0 -> Served code
    | Machine.Exited (-1) -> Rejected_kind
    | Machine.Exited (-2) -> (
        match t.last_trap with
        | Some (exc, cause) -> Rejected_trap (exc, cause)
        | None -> Abnormal "halt -2 without a recorded fault")
    | Machine.Exited code -> Abnormal (Printf.sprintf "unexpected exit %d" code)
    | r -> Abnormal (Fmt.str "%a" Machine.pp_run_result r)
  in
  (match (t.trace, trace_id) with
  | Some tr, Some _ ->
      Obs.Trace.end_request tr ~ts:(c0 + latency) ~code:(response_code response)
  | _ -> ());
  (response, latency)

let counters t = Os.Kernel.read_counters t.kernel
let kernel t = t.kernel
