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
   and any data access), so both questions are one array read: the page
   table is a byte per page (an index into the 32 prebuilt [prot]
   records) and residency is a slot index per page (-1 = not resident).
   [map] grows both to the highest mapped page.  Residency ticks live in
   a per-slot int array, so the LRU victim on a miss is an array minimum.
   Replacement is true LRU; ticks are unique, so there are no ties. *)

let page_bits = 12

type prot = {
  valid : bool;
  writable : bool;
  executable : bool;
  cap_load : bool; (* CHERI PTE extension: authorise capability loads *)
  cap_store : bool; (* ... and capability stores *)
}

(* Every protection, indexed by its five bits in field order. *)
let prots =
  Array.init 32 (fun i ->
      let bit k = i land (1 lsl k) <> 0 in
      { valid = bit 0; writable = bit 1; executable = bit 2; cap_load = bit 3; cap_store = bit 4 })

let prot_code p =
  Bool.to_int p.valid
  lor (Bool.to_int p.writable lsl 1)
  lor (Bool.to_int p.executable lsl 2)
  lor (Bool.to_int p.cap_load lsl 3)
  lor (Bool.to_int p.cap_store lsl 4)

let prot_none = prots.(0)
let prot_rwx = prots.(31)

type t = {
  entries : int; (* TLB capacity in page entries *)
  mutable perms : Bytes.t; (* the page table: VPN -> [prots] index *)
  mutable slot_of : int array; (* VPN -> resident slot, -1 = absent *)
  slot_vpn : int array; (* slot -> VPN (valid for slots < used) *)
  slot_tick : int array; (* slot -> last-use tick, the LRU order *)
  mutable used : int; (* live slots; eviction starts at [entries] *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(entries = 256) () =
  {
    entries;
    perms = Bytes.empty;
    slot_of = [||];
    slot_vpn = Array.make entries (-1);
    slot_tick = Array.make entries 0;
    used = 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

(* Addresses are below 2^63, so the VPN fits a native int. *)
let vpn addr = Int64.to_int addr lsr page_bits

(* Resize the page table and residency map to [n] pages, keeping the
   common prefix. *)
let resize t n =
  let perms = Bytes.make n '\000' and slot_of = Array.make n (-1) in
  let keep = min n (Bytes.length t.perms) in
  Bytes.blit t.perms 0 perms 0 keep;
  Array.blit t.slot_of 0 slot_of 0 keep;
  t.perms <- perms;
  t.slot_of <- slot_of

let pages vaddr len = (vpn vaddr, vpn (Int64.add vaddr (Int64.of_int (max 1 len - 1))))

let map t ~vaddr ~len prot =
  let first, last = pages vaddr len in
  if last >= Bytes.length t.perms then resize t (last + 1);
  Bytes.fill t.perms first (last - first + 1) (Char.unsafe_chr (prot_code prot))

let protection t vaddr =
  let p = vpn vaddr in
  if p < Bytes.length t.perms then
    Array.unsafe_get prots (Char.code (Bytes.unsafe_get t.perms p))
  else prot_none

(* [touch]'s miss path, kept out of line: install page [p] in a free
   slot, or evict the least-recently-used entry (modelling the software
   refill the timing model charges for). *)
let touch_miss t p =
  t.misses <- t.misses + 1;
  let slot =
    if t.used >= t.entries then begin
      (* Evict true LRU: the minimum tick (ticks are unique). *)
      let best = ref 0 in
      for i = 1 to t.entries - 1 do
        if t.slot_tick.(i) < t.slot_tick.(!best) then best := i
      done;
      t.slot_of.(t.slot_vpn.(!best)) <- -1;
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
  t.slot_of.(p) <- slot;
  false

(* Touch the TLB for a translation; returns [true] on a TLB hit.  The hit
   branch is inlined into callers, so a hit costs them no call and no
   boxed address.  The residency read is bounds-checked: a page beyond
   the map raises [Invalid_argument]. *)
let[@inline] touch t vaddr =
  t.tick <- t.tick + 1;
  let p = vpn vaddr in
  let slot = t.slot_of.(p) in
  if slot >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set t.slot_tick slot t.tick;
    true
  end
  else touch_miss t p

(* Drop a page from residency: move the last live slot into the hole so
   slots [0, used) stay dense (membership and ticks are preserved, so LRU
   decisions are unaffected). *)
let evict_page t p =
  let slot = t.slot_of.(p) in
  if slot >= 0 then begin
    t.slot_of.(p) <- -1;
    let last = t.used - 1 in
    if slot <> last then begin
      let moved = t.slot_vpn.(last) in
      t.slot_vpn.(slot) <- moved;
      t.slot_tick.(slot) <- t.slot_tick.(last);
      t.slot_of.(moved) <- slot
    end;
    t.slot_vpn.(last) <- -1;
    t.used <- last
  end

let unmap t ~vaddr ~len =
  let first, last = pages vaddr len in
  for p = first to min last (Bytes.length t.perms - 1) do
    Bytes.set t.perms p '\000';
    evict_page t p
  done

(* Snapshot/restore for the warm-server reset: the page table, the
   residency slots, their LRU ticks and the stats come back exactly; the
   per-page residency map is rebuilt from the restored slots. *)
type snapshot = {
  s_perms : Bytes.t;
  s_slot_vpn : int array;
  s_slot_tick : int array;
  s_used : int;
  s_tick : int;
  s_hits : int;
  s_misses : int;
}

let snapshot t =
  {
    s_perms = Bytes.copy t.perms;
    s_slot_vpn = Array.copy t.slot_vpn;
    s_slot_tick = Array.copy t.slot_tick;
    s_used = t.used;
    s_tick = t.tick;
    s_hits = t.hits;
    s_misses = t.misses;
  }

let restore t (s : snapshot) =
  for i = 0 to t.used - 1 do
    t.slot_of.(t.slot_vpn.(i)) <- -1
  done;
  let n = Bytes.length s.s_perms in
  if Bytes.length t.perms <> n then resize t n;
  Bytes.blit s.s_perms 0 t.perms 0 n;
  Array.blit s.s_slot_vpn 0 t.slot_vpn 0 t.entries;
  Array.blit s.s_slot_tick 0 t.slot_tick 0 t.entries;
  t.used <- s.s_used;
  t.tick <- s.s_tick;
  t.hits <- s.s_hits;
  t.misses <- s.s_misses;
  for i = 0 to t.used - 1 do
    t.slot_of.(t.slot_vpn.(i)) <- i
  done
