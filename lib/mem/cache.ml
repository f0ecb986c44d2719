(* A set-associative, write-back, write-allocate cache model with LRU
   replacement.  Purely a performance model: data lives in [Phys]; the
   cache tracks only which lines are resident, so it can be driven by both
   the machine and the trace-replay simulators.

   The model sits on the simulator's per-instruction path (every fetch and
   every data access touches it), so [access] is engineered to be
   allocation-free: geometry is restricted to powers of two and indexing
   is native-int shift/mask (no boxed [Int64.div]/[unsigned_rem]), the
   state is flat arrays indexed by slot = set * assoc + way, way search
   and victim selection are loops over the set's slots, and the two
   possible [Miss] outcomes are preallocated constants. *)

type t = {
  name : string;
  line_bytes : int;
  sets : int;
  assoc : int;
  line_bits : int; (* log2 line_bytes: addr -> line index by shift *)
  set_bits : int; (* log2 sets: line index -> (set, tag) by mask/shift *)
  tags : int array; (* slot -> tag, -1 = invalid *)
  lru : int array; (* slot -> last-use tick *)
  dirty : Bytes.t; (* slot -> '\001' when dirty; an invalid slot never is *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  (* One-line MRU front: the line index touched by the previous access
     and the slot holding it.  Sequential fetch and streaming data runs
     hit the same line many times in a row; the front turns those
     repeats into one compare + the same counter/LRU updates the full
     way search would make, bit-exactly.  [mru_slot] always holds
     [mru_line] because every access (including the eviction of that
     slot) re-points the front at its own line.  -1 = empty. *)
  mutable mru_line : int;
  mutable mru_slot : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* log2 of a power of two. *)
let log2 n =
  let rec go b v = if v <= 1 then b else go (b + 1) (v lsr 1) in
  go 0 n

let create ~name ~size_bytes ~line_bytes ~assoc =
  if line_bytes <= 0 || assoc <= 0 || size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg
      (Printf.sprintf "Cache.create %s: size %d B is not a multiple of line_bytes*assoc = %d*%d"
         name size_bytes line_bytes assoc);
  if not (is_pow2 line_bytes) then
    invalid_arg
      (Printf.sprintf
         "Cache.create %s: line_bytes %d is not a power of two (required by shift/mask indexing)"
         name line_bytes);
  let sets = size_bytes / (line_bytes * assoc) in
  if not (is_pow2 sets) then
    invalid_arg
      (Printf.sprintf
         "Cache.create %s: derived set count %d (= %d B / (%d B lines x %d ways)) is not a \
          power of two (required by shift/mask indexing)"
         name sets size_bytes line_bytes assoc);
  let slots = sets * assoc in
  {
    name;
    line_bytes;
    sets;
    assoc;
    line_bits = log2 line_bytes;
    set_bits = log2 sets;
    tags = Array.make slots (-1);
    lru = Array.make slots 0;
    dirty = Bytes.make slots '\000';
    tick = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    mru_line = -1;
    mru_slot = 0;
  }

let size_bytes t = t.sets * t.assoc * t.line_bytes

(* Line index of an address: the unit the hierarchy iterates over.
   Physical addresses fit a native int (63 bits), so this is a plain
   shift. *)
let line_index t addr = Int64.to_int addr lsr t.line_bits

(* Result of touching one line. *)
type outcome = Hit | Miss of { writeback : bool }

(* Preallocated outcomes: [access] never allocates. *)
let miss_clean = Miss { writeback = false }
let miss_writeback = Miss { writeback = true }

(* [access_line t ~line ~write] touches line index [line] (= addr /
   line_bytes).  On a miss the first invalid way — or, with the set full,
   the least-recently-used way — is evicted (recording a writeback if it
   was dirty) and the new line installed. *)
let access_line_slow t ~line ~write =
  t.tick <- t.tick + 1;
  let base = (line land (t.sets - 1)) * t.assoc in
  let stop = base + t.assoc in
  let tag = line lsr t.set_bits in
  let i = ref base in
  while !i < stop && Array.unsafe_get t.tags !i <> tag do
    incr i
  done;
  if !i < stop then begin
    let hit = !i in
    t.hits <- t.hits + 1;
    Array.unsafe_set t.lru hit t.tick;
    if write then Bytes.unsafe_set t.dirty hit '\001';
    t.mru_line <- line;
    t.mru_slot <- hit;
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* The first invalid way; otherwise the least recently used (the
       earliest way wins ties). *)
    let lru = ref base and j = ref base in
    while !j < stop && Array.unsafe_get t.tags !j >= 0 do
      if Array.unsafe_get t.lru !j < Array.unsafe_get t.lru !lru then lru := !j;
      incr j
    done;
    let v = if !j < stop then !j else !lru in
    let writeback = Bytes.unsafe_get t.dirty v <> '\000' in
    if writeback then t.writebacks <- t.writebacks + 1;
    Array.unsafe_set t.tags v tag;
    Array.unsafe_set t.lru v t.tick;
    Bytes.unsafe_set t.dirty v (if write then '\001' else '\000');
    (* Installing may have evicted the slot behind the front; re-pointing
       the front at the line just installed restores the invariant. *)
    t.mru_line <- line;
    t.mru_slot <- v;
    if writeback then miss_writeback else miss_clean
  end

let access_line t ~line ~write =
  if line = t.mru_line then begin
    (* MRU-front hit: same line as the previous access, still resident by
       the front invariant.  Counter and LRU updates are exactly the full
       hit path's. *)
    t.tick <- t.tick + 1;
    t.hits <- t.hits + 1;
    Array.unsafe_set t.lru t.mru_slot t.tick;
    if write then Bytes.unsafe_set t.dirty t.mru_slot '\001';
    Hit
  end
  else access_line_slow t ~line ~write

(* [access t ~addr ~write] touches the line containing [addr]. *)
let access t ~addr ~write = access_line t ~line:(line_index t addr) ~write

(* Snapshot/restore for the warm-server reset: the three slot arrays are
   copied and blitted back whole, with the stats.  The MRU front is
   emptied — the next access takes the full way search, which makes
   identical counter and LRU updates, so replay after restore is
   bit-exact. *)
type snapshot = {
  s_tags : int array;
  s_lru : int array;
  s_dirty : Bytes.t;
  s_tick : int;
  s_hits : int;
  s_misses : int;
  s_writebacks : int;
}

let snapshot t =
  {
    s_tags = Array.copy t.tags;
    s_lru = Array.copy t.lru;
    s_dirty = Bytes.copy t.dirty;
    s_tick = t.tick;
    s_hits = t.hits;
    s_misses = t.misses;
    s_writebacks = t.writebacks;
  }

(* [Array.blit] into an array in the major heap stores each element
   through the write barrier; these arrays hold only ints, so a plain
   loop copies the same values without it (about 6x faster at L2 size). *)
let blit_ints (src : int array) (dst : int array) =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- src.(i)
  done

let restore t (s : snapshot) =
  blit_ints s.s_tags t.tags;
  blit_ints s.s_lru t.lru;
  Bytes.blit s.s_dirty 0 t.dirty 0 (Bytes.length t.dirty);
  t.tick <- s.s_tick;
  t.hits <- s.s_hits;
  t.misses <- s.s_misses;
  t.writebacks <- s.s_writebacks;
  t.mru_line <- -1

let pp_stats ppf t =
  let total = t.hits + t.misses in
  Fmt.pf ppf "%s: %d accesses, %d misses (%.2f%%), %d writebacks" t.name total
    t.misses
    (if total = 0 then 0.0 else 100.0 *. float_of_int t.misses /. float_of_int total)
    t.writebacks
