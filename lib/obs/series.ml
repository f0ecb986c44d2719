(* Retirement-driven counter time-series: snapshot the counter file
   every [interval] retired instructions and keep the per-interval
   deltas, turning the end-of-run aggregates into a timeline of miss
   rates, DRAM traffic, and domain-crossing rate over simulated time.

   The sampler is driven from the machine's per-instruction step hook
   ([Machine.set_step_hook]), which both interpreter engines invoke at
   exactly the same architectural points — so the sample boundaries,
   and therefore the series, are identical under --engine plain and
   --engine superblock (host-class counters aside; [sanitize] zeroes
   those for engine-comparable exports).  Sampling never touches
   architectural state: a tick reads the counter file and allocates on
   the host, nothing more.

   Like Trace, a per-chunk series carries its own machine's clock;
   [append] shifts a chunk's samples by the cumulative instret/cycle
   totals of the chunks before it, so the merged sweep-wide series is
   byte-identical for any --jobs. *)

type sample = {
  at_instret : int; (* retirements at the sample boundary *)
  at_cycles : int; (* simulated cycles at the sample boundary *)
  delta : Counters.t; (* counter movement since the previous sample *)
}

type t = {
  interval : int;
  read : unit -> Counters.t;
  mutable base : Counters.t;
  mutable next_at : int;
  mutable rev_samples : sample list;
  mutable count : int;
}

let create ~interval ?(read = fun () -> Counters.create ()) () =
  if interval < 1 then invalid_arg "Series.create: interval";
  { interval; read; base = read (); next_at = interval; rev_samples = []; count = 0 }

let interval t = t.interval
let count t = t.count

(* The step-hook body: called with the current retirement count before
   every instruction; cheap no-op until the boundary passes. *)
let tick t ~instret =
  if instret >= t.next_at then begin
    let now = t.read () in
    let delta = Counters.diff now t.base in
    t.base <- now;
    t.rev_samples <-
      { at_instret = instret; at_cycles = Int64.to_int (Counters.get now Counters.cycles); delta }
      :: t.rev_samples;
    t.count <- t.count + 1;
    while t.next_at <= instret do
      t.next_at <- t.next_at + t.interval
    done
  end

let samples t = List.rev t.rev_samples

(* Freeze a sampler mid-stream: an independent series with the same
   interval, samples, delta base, and next boundary, sharing only the
   (stateless) counter-read closure.  The serving pool clones the
   boot-period series out of a server's checkpoint so every warm chunk
   starts its timeline with exactly the samples — and exactly the
   sampler state — a cold boot would have accumulated. *)
let copy t =
  {
    t with
    base = Counters.copy t.base;
    rev_samples =
      List.map (fun s -> { s with delta = Counters.copy s.delta }) t.rev_samples;
  }

let append src ~instret_offset ~cycles_offset ~into =
  List.iter
    (fun s ->
      into.rev_samples <-
        {
          at_instret = s.at_instret + instret_offset;
          at_cycles = s.at_cycles + cycles_offset;
          delta = Counters.copy s.delta;
        }
        :: into.rev_samples;
      into.count <- into.count + 1)
    (samples src)

(* Zero the non-architectural counters ([Counters.architectural]) in
   every delta, so serialized series compare byte-identical across
   interpreter engines — the same discipline as the serve sweep's
   counter exports. *)
let sanitize t =
  t.rev_samples <-
    List.map (fun s -> { s with delta = Counters.architectural s.delta }) t.rev_samples

(* --- Chrome counter-track export ------------------------------------------ *)

(* One "C" (counter) event per derived metric per sample: miss-rate
   percentages, DRAM bytes moved, domain crossings, and superblock
   dispatches (meaningful only in single-engine diagnostic traces;
   zero after [sanitize]). *)
let to_chrome_events ?(pid = 1) t =
  let track name ts value =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "C");
        ("pid", Json.Int (Int64.of_int pid));
        ("ts", Json.Int (Int64.of_int ts));
        ("args", Json.Obj [ ("value", value) ]);
      ]
  in
  List.concat_map
    (fun s ->
      let c = s.delta in
      let pct ~hits ~misses = Json.Float (Counters.miss_rate_pct c ~hits ~misses) in
      [
        track "l1d_miss_pct" s.at_cycles (pct ~hits:Counters.l1d_hits ~misses:Counters.l1d_misses);
        track "l2_miss_pct" s.at_cycles (pct ~hits:Counters.l2_hits ~misses:Counters.l2_misses);
        track "tlb_miss_pct" s.at_cycles (pct ~hits:Counters.tlb_hits ~misses:Counters.tlb_misses);
        track "dram_bytes" s.at_cycles
          (Json.Int
             (Int64.add
                (Counters.get c Counters.dram_read_bytes)
                (Counters.get c Counters.dram_write_bytes)));
        track "ccalls" s.at_cycles (Json.Int (Counters.get c Counters.ccalls));
        track "sb_dispatches" s.at_cycles (Json.Int (Counters.get c Counters.sb_dispatches));
      ])
    (samples t)
