(* The hardware-counter file (the subsystem's analogue of RISC-V
   hpmcounters / BERI's statcounters): a flat vector of monotonically
   increasing Int64 event counts populated by [lib/machine] (retirement,
   cycles, capability ops), [lib/mem] (cache/TLB/tag-controller events),
   and [lib/kernel] (syscalls, domain crossings).

   Represented as one int64 array indexed by the constants below so that
   snapshot, diff, and accumulate are element-wise loops rather than
   28 lines of record plumbing; [table] gives each index its stable,
   machine-readable name (the JSON schema key) and its class. *)

type t = int64 array

(* Index constants.  Order is the presentation and schema order; append
   only — the [table] below must stay in sync. *)
let instret = 0
let cycles = 1
let retired_stores = 2
let kernel_entries = 3
let syscalls = 4
let ccalls = 5
let loads = 6
let stores = 7
let load_bytes = 8
let store_bytes = 9
let l1i_hits = 10
let l1i_misses = 11
let l1d_hits = 12
let l1d_misses = 13
let l2_hits = 14
let l2_misses = 15
let tlb_hits = 16
let tlb_misses = 17
let tag_hits = 18
let tag_misses = 19
let tag_dram_fills = 20
let dram_read_bytes = 21
let dram_write_bytes = 22
let cap_ops = 23
let cap_loads = 24
let cap_stores = 25
let branches = 26
let samples = 27

let sb_translations = 28
let sb_dispatches = 29
let sb_retired = 30
let creturns = 31
let ctx_saves = 32
let ctx_restores = 33

(* What a counter measures, which decides how every consumer treats it:
   - [Architectural]: simulated-machine behaviour.  Deterministic, so
     diffs compare it exactly and engine-comparable exports keep it.
   - [Host]: interpreter telemetry (the superblock engine's regions
     translated, block dispatches, and instructions retired inside
     blocks).  Differs between `--engine plain` and `--engine superblock`
     runs of the same program, and with translation-cache warmth, so
     engine-comparable exports zero it and diffs skip it.
   - [Config]: profiler configuration ([samples]: PC samples taken).  Not
     exported at all. *)
type cls = Architectural | Host | Config

(* The one table: schema key and class per index, in index order. *)
let table =
  [|
    ("instret", Architectural);
    ("cycles", Architectural);
    ("retired_stores", Architectural);
    ("kernel_entries", Architectural);
    ("syscalls", Architectural);
    ("ccalls", Architectural);
    ("loads", Architectural);
    ("stores", Architectural);
    ("load_bytes", Architectural);
    ("store_bytes", Architectural);
    ("l1i_hits", Architectural);
    ("l1i_misses", Architectural);
    ("l1d_hits", Architectural);
    ("l1d_misses", Architectural);
    ("l2_hits", Architectural);
    ("l2_misses", Architectural);
    ("tlb_hits", Architectural);
    ("tlb_misses", Architectural);
    ("tag_hits", Architectural);
    ("tag_misses", Architectural);
    ("tag_dram_fills", Architectural);
    ("dram_read_bytes", Architectural);
    ("dram_write_bytes", Architectural);
    ("cap_ops", Architectural);
    ("cap_loads", Architectural);
    ("cap_stores", Architectural);
    ("branches", Architectural);
    ("samples", Config);
    ("sb_translations", Host);
    ("sb_dispatches", Host);
    ("sb_retired", Host);
    ("creturns", Architectural);
    ("ctx_saves", Architectural);
    ("ctx_restores", Architectural);
  |]

let names = Array.map fst table
let class_of i = snd table.(i)
let is_architectural i = class_of i = Architectural

let count = Array.length names

(* Index of a schema key ([names] entry), for consumers that arrive at
   counters by name (the baseline loader, attribution reports). *)
let index_of_name name =
  let found = ref None in
  Array.iteri (fun i n -> if n = name then found := Some i) names;
  !found

let create () : t = Array.make count 0L
let copy (c : t) : t = Array.copy c
let reset (c : t) = Array.fill c 0 count 0L
let get (c : t) i = c.(i)
let set (c : t) i v = c.(i) <- v
let set_int (c : t) i v = c.(i) <- Int64.of_int v
let add (c : t) i v = c.(i) <- Int64.add c.(i) v
let incr (c : t) i = add c i 1L

(* [diff now before] — the counter deltas over a region (span close). *)
let diff (now : t) (before : t) : t = Array.init count (fun i -> Int64.sub now.(i) before.(i))

(* Element-wise accumulate [src] into [dst] (span aggregation). *)
let accumulate (dst : t) (src : t) =
  for i = 0 to count - 1 do
    dst.(i) <- Int64.add dst.(i) src.(i)
  done

(* A copy with every non-architectural slot zeroed: the engine- and
   warmth-independent view that deterministic exports serialize. *)
let architectural (c : t) : t = Array.mapi (fun i v -> if is_architectural i then v else 0L) c

let equal (a : t) (b : t) =
  let rec go i = i >= count || (Int64.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let to_assoc (c : t) = Array.to_list (Array.mapi (fun i n -> (n, c.(i))) names)
let to_json (c : t) = Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (to_assoc c))

(* Derived ratios the reports print; total = 0 yields 0. *)
let ratio_pct num den =
  if Int64.equal den 0L then 0.0 else 100.0 *. Int64.to_float num /. Int64.to_float den

let miss_rate_pct (c : t) ~hits ~misses =
  ratio_pct c.(misses) (Int64.add c.(hits) c.(misses))

let pp ppf (c : t) =
  Fmt.pf ppf "@[<v>";
  Array.iteri (fun i n -> Fmt.pf ppf "%-18s %14Ld@," n c.(i)) names;
  Fmt.pf ppf "L1I miss rate      %13.2f%%@,L1D miss rate      %13.2f%%@,L2 miss rate       %13.2f%%@,TLB miss rate      %13.2f%%@,tag-$ miss rate    %13.2f%%"
    (miss_rate_pct c ~hits:l1i_hits ~misses:l1i_misses)
    (miss_rate_pct c ~hits:l1d_hits ~misses:l1d_misses)
    (miss_rate_pct c ~hits:l2_hits ~misses:l2_misses)
    (miss_rate_pct c ~hits:tlb_hits ~misses:tlb_misses)
    (miss_rate_pct c ~hits:tag_hits ~misses:tag_misses);
  Fmt.pf ppf "@]"
