(* The BERI/CHERI memory hierarchy performance model.

   Mirrors the FPGA prototype of Sections 4 and 8: split 16 KB L1 caches,
   a 64 KB L2, 32-byte lines, a TLB covering 1 MB, and a tag controller
   below the L2 with an 8 KB tag cache.  Access functions return a cycle
   cost and accumulate DRAM traffic statistics; data itself moves through
   [Phys] separately.  All capacities and penalties are configurable so
   benches can run ablations.

   The access functions sit on the simulator's per-instruction path, so
   they are allocation-free in the common case: line spans are iterated
   as native-int line indices (no intermediate list), the caches are
   indexed by shift/mask, and observability events are only constructed
   when a probe is actually attached. *)

type config = {
  l1_size : int;
  l2_size : int;
  line_bytes : int;
  assoc : int;
  tlb_entries : int;
  tag_cache_size : int; (* bytes of tag SRAM; each byte covers 8 lines *)
  l2_hit_cycles : int; (* L1 miss, L2 hit *)
  dram_cycles : int; (* L2 miss *)
  tlb_refill_cycles : int; (* software TLB refill *)
}

let default_config =
  {
    l1_size = 16 * 1024;
    l2_size = 64 * 1024;
    line_bytes = 32;
    assoc = 4;
    tlb_entries = 256;
    tag_cache_size = 8 * 1024;
    (* Penalties in cycles of a 100 MHz FPGA soft core (Section 4): DRAM
       at ~120 ns is only ~12 cycles away, which is why the paper's
       worst-case slowdowns stay modest. *)
    l2_hit_cycles = 4;
    dram_cycles = 12;
    tlb_refill_cycles = 30;
  }

type t = {
  config : config;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  tag_cache : Cache.t;
  tlb : Tlb.t;
  line_bits : int; (* log2 of the (shared) line size: line index <-> addr *)
  mutable dram_read_bytes : int;
  mutable dram_write_bytes : int;
  mutable loads : int;
  mutable stores : int;
  mutable load_bytes : int;
  mutable store_bytes : int;
  mutable tag_dram_accesses : int;
  mutable on_event : (Obs.Attrib.event -> addr:int64 -> unit) option;
      (* the widened observability probe: every miss, DRAM transfer, and
         data access is reported with its address.  [None] (the default)
         costs one pattern match per event site — the event value itself
         is only constructed when a probe is attached.  The machine
         installs a closure that adds the in-flight PC and feeds
         [Obs.Attrib].  Purely an observer — firing never changes costs
         or state. *)
}

let create ?(config = default_config) () =
  let l1d =
    Cache.create ~name:"L1D" ~size_bytes:config.l1_size ~line_bytes:config.line_bytes
      ~assoc:config.assoc
  in
  {
    config;
    l1i = Cache.create ~name:"L1I" ~size_bytes:config.l1_size ~line_bytes:config.line_bytes ~assoc:config.assoc;
    l1d;
    l2 = Cache.create ~name:"L2" ~size_bytes:config.l2_size ~line_bytes:config.line_bytes ~assoc:config.assoc;
    tag_cache = Cache.create ~name:"TagCache" ~size_bytes:config.tag_cache_size ~line_bytes:config.line_bytes ~assoc:config.assoc;
    tlb = Tlb.create ~entries:config.tlb_entries ();
    line_bits = l1d.Cache.line_bits;
    dram_read_bytes = 0;
    dram_write_bytes = 0;
    loads = 0;
    stores = 0;
    load_bytes = 0;
    store_bytes = 0;
    tag_dram_accesses = 0;
    on_event = None;
  }

(* Report one observability event at [addr]; free when no probe is attached. *)
let fire t ev ~addr = match t.on_event with None -> () | Some f -> f ev ~addr

(* Tag controller: each DRAM transaction consults the tag table; the 8 KB
   tag cache covers 2 MB of memory (one bit per 32-byte line), so misses
   are rare (the paper: "does not noticeably degrade performance").
   Attribution events carry the *data* address, not the tag-table
   address — "which access caused the tag fill" is the question.
   [line] is the data line index; one tag-cache line (32 B = 256 tag
   bits) covers 256 lines = 8 KB, so the tag-table line index is the
   data address divided by 256 then by the line size. *)
let tag_lookup t ~line ~write =
  let tag_line = line lsr 8 in
  match Cache.access_line t.tag_cache ~line:tag_line ~write with
  | Cache.Hit -> 0
  | Cache.Miss { writeback } ->
      t.tag_dram_accesses <- t.tag_dram_accesses + 1;
      t.dram_read_bytes <- t.dram_read_bytes + t.config.line_bytes;
      (match t.on_event with
      | None -> ()
      | Some f ->
          let addr = Int64.of_int (line lsl t.line_bits) in
          f Obs.Attrib.Tag_miss ~addr;
          f (Obs.Attrib.Dram_read t.config.line_bytes) ~addr);
      if writeback then begin
        t.dram_write_bytes <- t.dram_write_bytes + t.config.line_bytes;
        match t.on_event with
        | None -> ()
        | Some f ->
            f (Obs.Attrib.Dram_write t.config.line_bytes)
              ~addr:(Int64.of_int (line lsl t.line_bits))
      end;
      (* Fetched in parallel with the DRAM line fill; charge a single cycle. *)
      1

(* One L2 lookup (with its DRAM and tag-controller consequences) for data
   line index [line]. *)
let l2_access t ~line ~write =
  match Cache.access_line t.l2 ~line ~write with
  | Cache.Hit -> 0
  | Cache.Miss { writeback } ->
      t.dram_read_bytes <- t.dram_read_bytes + t.config.line_bytes;
      (match t.on_event with
      | None -> ()
      | Some f ->
          let addr = Int64.of_int (line lsl t.line_bits) in
          f Obs.Attrib.L2_miss ~addr;
          f (Obs.Attrib.Dram_read t.config.line_bytes) ~addr);
      if writeback then begin
        t.dram_write_bytes <- t.dram_write_bytes + t.config.line_bytes;
        match t.on_event with
        | None -> ()
        | Some f ->
            f (Obs.Attrib.Dram_write t.config.line_bytes)
              ~addr:(Int64.of_int (line lsl t.line_bits))
      end;
      1

(* The rest of an L1 miss on [line] (the L1 has already installed it):
   the victim's writeback, the L2 fill and, on an L2 miss, DRAM and the
   tag controller.  Returns the cycle cost.  [l1_ev] is the attribution
   class of the miss (L1I vs L1D). *)
let l1_miss t ~l1_ev ~line ~write ~writeback:l1_wb =
  let cost = ref t.config.l2_hit_cycles in
  (match t.on_event with
  | None -> ()
  | Some f -> f l1_ev ~addr:(Int64.of_int (line lsl t.line_bits)));
  (* Known fault, kept because every timed baseline depends on it:
     the dirty victim is written back under the *incoming* line's
     index, so the victim never reaches L2, this writeback installs
     the incoming line there, and the fill below always hits.  A
     dirty-victim miss to a line absent from L2 is charged
     [l2_hit_cycles] with no [dram_cycles] and no tag lookup. *)
  if l1_wb then ignore (l2_access t ~line ~write:true);
  (match Cache.access_line t.l2 ~line ~write:false with
  | Cache.Hit -> ()
  | Cache.Miss { writeback } ->
      cost := !cost + t.config.dram_cycles;
      t.dram_read_bytes <- t.dram_read_bytes + t.config.line_bytes;
      (match t.on_event with
      | None -> ()
      | Some f ->
          let addr = Int64.of_int (line lsl t.line_bits) in
          f Obs.Attrib.L2_miss ~addr;
          f (Obs.Attrib.Dram_read t.config.line_bytes) ~addr);
      if writeback then begin
        t.dram_write_bytes <- t.dram_write_bytes + t.config.line_bytes;
        (match t.on_event with
        | None -> ()
        | Some f ->
            f (Obs.Attrib.Dram_write t.config.line_bytes)
              ~addr:(Int64.of_int (line lsl t.line_bits)))
      end;
      cost := !cost + tag_lookup t ~line ~write);
  !cost

(* Touch one line through L1 -> L2 -> DRAM, returning a cycle cost.  The
   L1 hit (inlined from [Cache.access_line]) costs the caller no call;
   a miss goes out of line. *)
let[@inline] line_access t ~l1 ~l1_ev ~line ~write =
  match Cache.access_line l1 ~line ~write with
  | Cache.Hit -> 0
  | Cache.Miss { writeback } -> l1_miss t ~l1_ev ~line ~write ~writeback

(* The TLB's share of an access at [addr]: nothing on a hit, the
   software refill on a miss. *)
let[@inline] tlb_access t addr =
  if Tlb.touch t.tlb addr then 0
  else begin
    fire t Obs.Attrib.Tlb_miss ~addr;
    t.config.tlb_refill_cycles
  end

(* A data access of [size] bytes at [addr]; returns the cycle penalty beyond
   the single-cycle pipeline occupancy. *)
let access_data t ~addr ~size ~write =
  if write then begin
    t.stores <- t.stores + 1;
    t.store_bytes <- t.store_bytes + size
  end
  else begin
    t.loads <- t.loads + 1;
    t.load_bytes <- t.load_bytes + size
  end;
  (match t.on_event with
  | None -> ()
  | Some f -> f (if write then Obs.Attrib.Store size else Obs.Attrib.Load size) ~addr);
  let iaddr = Int64.to_int addr in
  let cost = ref (tlb_access t addr) in
  for line = iaddr lsr t.line_bits to (iaddr + max 1 size - 1) lsr t.line_bits do
    cost := !cost + line_access t ~l1:t.l1d ~l1_ev:Obs.Attrib.L1d_miss ~line ~write
  done;
  !cost

(* An instruction fetch at [pc].  Inlined into the machine's fetch, so
   the PC stays unboxed on the hit paths; only an attached probe boxes
   it, for a miss event. *)
let[@inline] access_insn t ~pc =
  let tlb_cost = tlb_access t pc in
  tlb_cost
  + line_access t ~l1:t.l1i ~l1_ev:Obs.Attrib.L1i_miss
      ~line:(Int64.to_int pc lsr t.line_bits) ~write:false

(* Deposit the hierarchy's internal statistics into an observability
   counter file (lib/obs).  This is the lib/mem half of the counter
   population: the model already counts every cache/TLB/tag event for
   its own reports, so the obs view reads the same accumulators rather
   than double-counting on the access path. *)
let fill_counters t (c : Obs.Counters.t) =
  let open Obs.Counters in
  set_int c loads t.loads;
  set_int c stores t.stores;
  set_int c load_bytes t.load_bytes;
  set_int c store_bytes t.store_bytes;
  set_int c l1i_hits t.l1i.Cache.hits;
  set_int c l1i_misses t.l1i.Cache.misses;
  set_int c l1d_hits t.l1d.Cache.hits;
  set_int c l1d_misses t.l1d.Cache.misses;
  set_int c l2_hits t.l2.Cache.hits;
  set_int c l2_misses t.l2.Cache.misses;
  set_int c tlb_hits t.tlb.Tlb.hits;
  set_int c tlb_misses t.tlb.Tlb.misses;
  set_int c tag_hits t.tag_cache.Cache.hits;
  set_int c tag_misses t.tag_cache.Cache.misses;
  set_int c tag_dram_fills t.tag_dram_accesses;
  set_int c dram_read_bytes t.dram_read_bytes;
  set_int c dram_write_bytes t.dram_write_bytes

(* Snapshot/restore for the warm-server reset: compose the caches' and
   TLB's snapshots with the hierarchy's own traffic accumulators. *)
type snapshot = {
  s_l1i : Cache.snapshot;
  s_l1d : Cache.snapshot;
  s_l2 : Cache.snapshot;
  s_tag_cache : Cache.snapshot;
  s_tlb : Tlb.snapshot;
  s_dram_read_bytes : int;
  s_dram_write_bytes : int;
  s_loads : int;
  s_stores : int;
  s_load_bytes : int;
  s_store_bytes : int;
  s_tag_dram_accesses : int;
}

let snapshot t =
  {
    s_l1i = Cache.snapshot t.l1i;
    s_l1d = Cache.snapshot t.l1d;
    s_l2 = Cache.snapshot t.l2;
    s_tag_cache = Cache.snapshot t.tag_cache;
    s_tlb = Tlb.snapshot t.tlb;
    s_dram_read_bytes = t.dram_read_bytes;
    s_dram_write_bytes = t.dram_write_bytes;
    s_loads = t.loads;
    s_stores = t.stores;
    s_load_bytes = t.load_bytes;
    s_store_bytes = t.store_bytes;
    s_tag_dram_accesses = t.tag_dram_accesses;
  }

let restore t (s : snapshot) =
  Cache.restore t.l1i s.s_l1i;
  Cache.restore t.l1d s.s_l1d;
  Cache.restore t.l2 s.s_l2;
  Cache.restore t.tag_cache s.s_tag_cache;
  Tlb.restore t.tlb s.s_tlb;
  t.dram_read_bytes <- s.s_dram_read_bytes;
  t.dram_write_bytes <- s.s_dram_write_bytes;
  t.loads <- s.s_loads;
  t.stores <- s.s_stores;
  t.load_bytes <- s.s_load_bytes;
  t.store_bytes <- s.s_store_bytes;
  t.tag_dram_accesses <- s.s_tag_dram_accesses

let pp_stats ppf t =
  Fmt.pf ppf "@[<v>%a@,%a@,%a@,%a@,TLB: %d hits, %d misses@,DRAM: %d B read, %d B written (%d tag fills)@]"
    Cache.pp_stats t.l1i Cache.pp_stats t.l1d Cache.pp_stats t.l2
    Cache.pp_stats t.tag_cache t.tlb.Tlb.hits t.tlb.Tlb.misses t.dram_read_bytes
    t.dram_write_bytes t.tag_dram_accesses
