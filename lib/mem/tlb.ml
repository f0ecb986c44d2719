(* Address translation: a page table plus a TLB reach model.

   The reproduction uses identity virtual-to-physical mapping (each process
   image is loaded at its virtual addresses), so what matters
   architecturally is (a) per-page permissions — including the CHERI page
   table extension bits that authorise capability loads and stores
   (Section 6.1) — and (b) TLB reach: the paper's Figure 5 'steps' come
   from a TLB covering 1 MB (256 entries x 4 KB), which this model
   reproduces by counting hits and misses over a fully-associative LRU
   entry set.

   The TLB is consulted at least twice per simulated instruction (I-fetch
   and any data access), so the hot paths are engineered to be
   allocation-free:

   - [touch] keeps a one-entry last-translation cache (same page as the
     previous translation: two int compares, no hashing) in front of a
     VPN -> slot hashtable; residency ticks live in a plain int array so
     the LRU victim scan on a miss is an array minimum instead of an
     allocating [Hashtbl.fold].
   - [protection] memoises page-table lookups in a small direct-mapped
     array keyed by VPN, invalidated whole on [map]/[unmap]; the common
     case is two array reads and an int compare.

   Replacement decisions are identical to the reference model (true LRU,
   ticks are unique so there are no ties): hit/miss counters are
   bit-exact with the pre-optimisation implementation. *)

let page_bits = 12
let page_bytes = 1 lsl page_bits

type prot = {
  valid : bool;
  writable : bool;
  executable : bool;
  cap_load : bool; (* CHERI PTE extension: authorise capability loads *)
  cap_store : bool; (* ... and capability stores *)
}

let prot_none = { valid = false; writable = false; executable = false; cap_load = false; cap_store = false }
let prot_rwx = { valid = true; writable = true; executable = true; cap_load = true; cap_store = true }

(* Direct-mapped [protection] memo size; indexed by the low VPN bits. *)
let prot_memo_slots = 64

(* Direct-mapped VPN -> residency-slot memo size.  The one-entry
   last-translation cache in [touch] dies under I/D ping-pong (every
   instruction translates the code page, then its data access translates
   a data page), sending every fetch through the hashtable; a small
   direct-mapped memo keeps both pages' slots one compare away.  Entries
   are verified against [slot_vpn] before use, so stale ones (slot since
   evicted or reused) fall through to the hashtable — hit/miss decisions
   and LRU updates stay bit-exact. *)
let slot_memo_slots = 64

type t = {
  entries : int; (* TLB capacity in page entries *)
  table : (int, prot) Hashtbl.t; (* the page table: VPN -> protections *)
  slot_of : (int, int) Hashtbl.t; (* resident VPN -> slot index *)
  slot_vpn : int array; (* slot -> VPN (valid for slots < used) *)
  slot_tick : int array; (* slot -> last-use tick, the LRU order *)
  mutable used : int; (* live slots; eviction starts at [entries] *)
  mutable last_vpn : int; (* one-entry last-translation cache (-1 empty) *)
  mutable last_slot : int;
  prot_vpn : int array; (* protection memo: VPN per memo slot (-1 empty) *)
  prot_val : prot array;
  slot_memo_vpn : int array; (* residency memo: VPN per memo slot (-1 empty) *)
  slot_memo_slot : int array; (* ... and the TLB slot it mapped to *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable version : int; (* bumped by map/unmap; lets restore skip the
                            page-table copy when mappings never changed *)
}

let create ?(entries = 256) () =
  {
    entries;
    table = Hashtbl.create 1024;
    slot_of = Hashtbl.create 512;
    slot_vpn = Array.make entries (-1);
    slot_tick = Array.make entries 0;
    used = 0;
    last_vpn = -1;
    last_slot = -1;
    prot_vpn = Array.make prot_memo_slots (-1);
    prot_val = Array.make prot_memo_slots prot_none;
    slot_memo_vpn = Array.make slot_memo_slots (-1);
    slot_memo_slot = Array.make slot_memo_slots 0;
    tick = 0;
    hits = 0;
    misses = 0;
    version = 0;
  }

(* Addresses are below 2^63, so the VPN fits a native int. *)
let vpn addr = Int64.to_int addr lsr page_bits

let invalidate_prot_memo t = Array.fill t.prot_vpn 0 prot_memo_slots (-1)

let map t ~vaddr ~len prot =
  let first = vpn vaddr in
  let last = vpn (Int64.add vaddr (Int64.of_int (max 1 len - 1))) in
  for p = first to last do
    Hashtbl.replace t.table p prot
  done;
  t.version <- t.version + 1;
  invalidate_prot_memo t

let protection t vaddr =
  let p = vpn vaddr in
  let i = p land (prot_memo_slots - 1) in
  if Array.unsafe_get t.prot_vpn i = p then Array.unsafe_get t.prot_val i
  else begin
    (* [find], not [find_opt]: the miss path must not allocate either. *)
    let pr = try Hashtbl.find t.table p with Not_found -> prot_none in
    Array.unsafe_set t.prot_vpn i p;
    Array.unsafe_set t.prot_val i pr;
    pr
  end

(* Touch the TLB for a translation; returns [true] on a TLB hit.  On a miss
   the least-recently-used entry is evicted (modelling the software refill
   the timing model charges for). *)
let touch t vaddr =
  t.tick <- t.tick + 1;
  let p = vpn vaddr in
  if p = t.last_vpn then begin
    (* Same page as the previous translation: resident by construction. *)
    t.hits <- t.hits + 1;
    Array.unsafe_set t.slot_tick t.last_slot t.tick;
    true
  end
  else begin
    let mi = p land (slot_memo_slots - 1) in
    let mslot = Array.unsafe_get t.slot_memo_slot mi in
    if Array.unsafe_get t.slot_memo_vpn mi = p && Array.unsafe_get t.slot_vpn mslot = p
    then begin
      (* Memoised residency, verified still live: same updates as the
         hashtable hit below. *)
      t.hits <- t.hits + 1;
      Array.unsafe_set t.slot_tick mslot t.tick;
      t.last_vpn <- p;
      t.last_slot <- mslot;
      true
    end
    else
      match Hashtbl.find t.slot_of p with
      | slot ->
          t.hits <- t.hits + 1;
          t.slot_tick.(slot) <- t.tick;
          t.last_vpn <- p;
          t.last_slot <- slot;
          t.slot_memo_vpn.(mi) <- p;
          t.slot_memo_slot.(mi) <- slot;
          true
      | exception Not_found ->
        t.misses <- t.misses + 1;
        let slot =
          if t.used >= t.entries then begin
            (* Evict true LRU: the minimum tick (ticks are unique). *)
            let best = ref 0 in
            for i = 1 to t.entries - 1 do
              if t.slot_tick.(i) < t.slot_tick.(!best) then best := i
            done;
            Hashtbl.remove t.slot_of t.slot_vpn.(!best);
            !best
          end
          else begin
            let s = t.used in
            t.used <- t.used + 1;
            s
          end
        in
        t.slot_vpn.(slot) <- p;
        t.slot_tick.(slot) <- t.tick;
        Hashtbl.replace t.slot_of p slot;
        t.last_vpn <- p;
        t.last_slot <- slot;
        t.slot_memo_vpn.(mi) <- p;
        t.slot_memo_slot.(mi) <- slot;
        false
  end

let flush t =
  Hashtbl.reset t.slot_of;
  Array.fill t.slot_vpn 0 t.entries (-1);
  t.used <- 0;
  t.last_vpn <- -1;
  t.last_slot <- -1

(* Drop a page from residency: move the last live slot into the hole so
   slots [0, used) stay dense (membership and ticks are preserved, so LRU
   decisions are unaffected). *)
let evict_page t p =
  match Hashtbl.find_opt t.slot_of p with
  | None -> ()
  | Some slot ->
      Hashtbl.remove t.slot_of p;
      let last = t.used - 1 in
      if slot <> last then begin
        let moved = t.slot_vpn.(last) in
        t.slot_vpn.(slot) <- moved;
        t.slot_tick.(slot) <- t.slot_tick.(last);
        Hashtbl.replace t.slot_of moved slot
      end;
      t.slot_vpn.(last) <- -1;
      t.used <- last;
      if t.last_vpn = p then begin
        t.last_vpn <- -1;
        t.last_slot <- -1
      end
      else if t.last_slot = last then t.last_slot <- slot

let unmap t ~vaddr ~len =
  let first = vpn vaddr in
  let last = vpn (Int64.add vaddr (Int64.of_int (max 1 len - 1))) in
  for p = first to last do
    Hashtbl.remove t.table p;
    evict_page t p
  done;
  t.version <- t.version + 1;
  invalidate_prot_memo t

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let mapped_pages t = Hashtbl.length t.table

(* Snapshot/restore for the warm-server reset.  Architectural state
   (page table, residency set, LRU ticks, hit/miss stats) is restored
   exactly; the host-only fast paths (last-translation cache, residency
   and protection memos) are merely emptied — a memo miss takes the slow
   path, which performs the identical hit/miss decision, counter update,
   and LRU tick write, so replay after restore is bit-exact.  The page
   table copy is skipped on restore when [version] shows no map/unmap
   happened since the snapshot (the common case: servers never remap). *)
type snapshot = {
  s_version : int;
  s_table : (int, prot) Hashtbl.t;
  s_slot_of : (int, int) Hashtbl.t;
  s_slot_vpn : int array;
  s_slot_tick : int array;
  s_used : int;
  s_tick : int;
  s_hits : int;
  s_misses : int;
}

let snapshot t =
  {
    s_version = t.version;
    s_table = Hashtbl.copy t.table;
    s_slot_of = Hashtbl.copy t.slot_of;
    s_slot_vpn = Array.copy t.slot_vpn;
    s_slot_tick = Array.copy t.slot_tick;
    s_used = t.used;
    s_tick = t.tick;
    s_hits = t.hits;
    s_misses = t.misses;
  }

let restore t (s : snapshot) =
  if t.version <> s.s_version then begin
    Hashtbl.reset t.table;
    Hashtbl.iter (fun k v -> Hashtbl.replace t.table k v) s.s_table;
    t.version <- s.s_version
  end;
  Hashtbl.reset t.slot_of;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.slot_of k v) s.s_slot_of;
  Array.blit s.s_slot_vpn 0 t.slot_vpn 0 t.entries;
  Array.blit s.s_slot_tick 0 t.slot_tick 0 t.entries;
  t.used <- s.s_used;
  t.tick <- s.s_tick;
  t.hits <- s.s_hits;
  t.misses <- s.s_misses;
  t.last_vpn <- -1;
  t.last_slot <- -1;
  invalidate_prot_memo t;
  Array.fill t.slot_memo_vpn 0 slot_memo_slots (-1)
