(* Property tests for the memory subsystem models: physical memory
   round-trips, tag-table semantics, cache residency, and TLB reach. *)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let prop_phys_roundtrip =
  QCheck.Test.make ~count:300 ~name:"scalar store/load roundtrip"
    QCheck.(pair (int_bound 0xFFF0) (int_bound 3))
    (fun (addr, width) ->
      let p = Mem.Phys.create ~size_bytes:0x10000 in
      let a = Int64.of_int addr in
      match width with
      | 0 ->
          Mem.Phys.write_u8 p a 0xAB;
          Mem.Phys.read_u8 p a = 0xAB
      | 1 ->
          Mem.Phys.write_u16 p a 0xBEEF;
          Mem.Phys.read_u16 p a = 0xBEEF
      | 2 ->
          Mem.Phys.write_u32 p a 0xDEADBEEF;
          Mem.Phys.read_u32 p a = 0xDEADBEEF
      | _ ->
          Mem.Phys.write_u64 p a 0x0123456789ABCDEFL;
          Int64.equal (Mem.Phys.read_u64 p a) 0x0123456789ABCDEFL)

let prop_phys_bus_error =
  QCheck.Test.make ~count:100 ~name:"out-of-range access raises Bus_error"
    QCheck.(int_range 0xFFF9 0x11000)
    (fun addr ->
      let p = Mem.Phys.create ~size_bytes:0x10000 in
      match Mem.Phys.read_u64 p (Int64.of_int addr) with
      | _ -> addr + 8 <= 0x10000
      | exception Mem.Phys.Bus_error _ -> addr + 8 > 0x10000)

let prop_tags_store_clears =
  QCheck.Test.make ~count:300 ~name:"any overlapping data store clears the tag"
    QCheck.(pair (int_bound 1000) (int_range 1 16))
    (fun (line, size) ->
      let t = Mem.Tags.create ~mem_size:0x10000 () in
      let line_addr = Int64.of_int (line * 32 mod 0xF000) in
      Mem.Tags.set t line_addr true;
      (* a store overlapping any byte of the line clears it *)
      let off = size mod 32 in
      Mem.Tags.clear_range t (Int64.add line_addr (Int64.of_int off)) size;
      not (Mem.Tags.get t line_addr))

let prop_tags_neighbours_unaffected =
  QCheck.Test.make ~count:300 ~name:"stores do not clear other lines' tags"
    QCheck.(int_bound 500)
    (fun line ->
      let t = Mem.Tags.create ~mem_size:0x10000 () in
      let a = Int64.of_int (line * 32) in
      let next = Int64.add a 32L in
      Mem.Tags.set t a true;
      Mem.Tags.set t next true;
      Mem.Tags.clear_range t a 32;
      (not (Mem.Tags.get t a)) && Mem.Tags.get t next)

let prop_cache_rehit =
  QCheck.Test.make ~count:200 ~name:"immediate re-access always hits"
    QCheck.(pair (int_bound 0xFFFFF) bool)
    (fun (addr, write) ->
      let c = Mem.Cache.create ~name:"p" ~size_bytes:4096 ~line_bytes:32 ~assoc:2 in
      ignore (Mem.Cache.access c ~addr:(Int64.of_int addr) ~write);
      Mem.Cache.access c ~addr:(Int64.of_int addr) ~write:false = Mem.Cache.Hit)

let prop_cache_working_set =
  QCheck.Test.make ~count:100 ~name:"a set's associativity worth of lines co-resides"
    QCheck.(int_bound 0xFFFF)
    (fun base ->
      let assoc = 4 in
      let c = Mem.Cache.create ~name:"p" ~size_bytes:4096 ~line_bytes:32 ~assoc in
      let sets = 4096 / (32 * assoc) in
      (* assoc addresses mapping to the same set *)
      let addrs =
        List.init assoc (fun i -> Int64.of_int ((base * 32) + (i * sets * 32)))
      in
      List.iter (fun a -> ignore (Mem.Cache.access c ~addr:a ~write:false)) addrs;
      List.for_all (fun a -> Mem.Cache.access c ~addr:a ~write:false = Mem.Cache.Hit) addrs)

let prop_tlb_reach =
  QCheck.Test.make ~count:100 ~name:"TLB holds exactly its capacity"
    QCheck.(int_range 2 16)
    (fun entries ->
      let t = Mem.Tlb.create ~entries () in
      Mem.Tlb.map t ~vaddr:0L ~len:(4096 * (entries + 1)) Mem.Tlb.prot_rwx;
      (* touch [entries] distinct pages, then re-touch: all resident *)
      let pages = List.init entries (fun i -> Int64.of_int (i * 4096)) in
      List.iter (fun p -> ignore (Mem.Tlb.touch t p)) pages;
      let all_hit = List.for_all (fun p -> Mem.Tlb.touch t p) pages in
      (* one more page evicts exactly the least recently used (page 0);
         probing mutates recency, so check MRU first, then the victim *)
      ignore (Mem.Tlb.touch t (Int64.of_int (entries * 4096)));
      let mru_resident = Mem.Tlb.touch t (Int64.of_int ((entries - 1) * 4096)) in
      let lru_evicted = not (Mem.Tlb.touch t 0L) in
      all_hit && mru_resident && lru_evicted)

(* Reference models for the TLB and the caches: the same replacement
   policy written the obvious way (true LRU as an MRU-first list), driven
   in lockstep with the flat-array models through random operation
   sequences, snapshots and restores included.  Every hit/miss/writeback,
   every protection record and every counter must agree after every
   operation. *)

type tlb_op =
  | Map of int * int * int (* vaddr, len, protection bits *)
  | Unmap of int * int
  | Touch of int
  | Prot of int
  | Snap
  | Restore

let pp_tlb_op = function
  | Map (a, l, b) -> Printf.sprintf "map 0x%x+%d bits=%d" a l b
  | Unmap (a, l) -> Printf.sprintf "unmap 0x%x+%d" a l
  | Touch a -> Printf.sprintf "touch 0x%x" a
  | Prot a -> Printf.sprintf "prot 0x%x" a
  | Snap -> "snapshot"
  | Restore -> "restore"

(* Bit k of [bits] is the k-th field of [Mem.Tlb.prot], in order. *)
let prot_of_bits bits =
  let b k = bits land (1 lsl k) <> 0 in
  { Mem.Tlb.valid = b 0; writable = b 1; executable = b 2; cap_load = b 3; cap_store = b 4 }

type tlb_model = {
  pt : (int * Mem.Tlb.prot) list; (* the page table, VPN -> prot *)
  mru : int list; (* resident VPNs, most recently used first *)
  m_hits : int;
  m_misses : int;
}

let tlb_model_step entries m = function
  | Map (vaddr, len, bits) ->
      let first = vaddr / 4096 and last = (vaddr + max 1 len - 1) / 4096 in
      let pt = ref m.pt in
      for p = first to last do
        pt := (p, prot_of_bits bits) :: List.remove_assoc p !pt
      done;
      { m with pt = !pt }
  | Unmap (vaddr, len) ->
      let first = vaddr / 4096 and last = (vaddr + max 1 len - 1) / 4096 in
      let gone p = p >= first && p <= last in
      {
        m with
        pt = List.filter (fun (p, _) -> not (gone p)) m.pt;
        mru = List.filter (fun p -> not (gone p)) m.mru;
      }
  | Touch vaddr when not (List.mem_assoc (vaddr / 4096) m.pt) ->
      (* Only mapped pages are translated: the machine checks
         [protection] first. *)
      m
  | Touch vaddr ->
      let p = vaddr / 4096 in
      if List.mem p m.mru then
        { m with mru = p :: List.filter (( <> ) p) m.mru; m_hits = m.m_hits + 1 }
      else
        let mru = p :: m.mru in
        let mru = List.filteri (fun i _ -> i < entries) mru in
        { m with mru; m_misses = m.m_misses + 1 }
  | Prot _ | Snap | Restore -> m

let gen_tlb_case =
  QCheck.Gen.(
    (* maps stay below page 26; protection also probes past the map *)
    let addr pages = map2 (fun p off -> (p * 4096) + off) (int_bound pages) (int_bound 4095) in
    let op =
      frequency
        [
          (3, map3 (fun a l b -> Map (a, l, b)) (addr 23) (int_bound (3 * 4096)) (int_bound 31));
          (1, map2 (fun a l -> Unmap (a, l)) (addr 23) (int_bound (2 * 4096)));
          (8, map (fun a -> Touch a) (addr 23));
          (3, map (fun a -> Prot a) (addr 31));
          (1, return Snap);
          (1, return Restore);
        ]
    in
    pair (int_range 1 8) (list_size (int_range 1 80) op))

let arb_tlb_case =
  QCheck.make gen_tlb_case ~print:(fun (entries, ops) ->
      Printf.sprintf "entries=%d: %s" entries (String.concat "; " (List.map pp_tlb_op ops)))

let prop_tlb_reference =
  QCheck.Test.make ~count:1000 ~name:"TLB agrees with a list-LRU reference model" arb_tlb_case
    (fun (entries, ops) ->
      let t = Mem.Tlb.create ~entries () in
      let m = ref { pt = []; mru = []; m_hits = 0; m_misses = 0 } in
      let saved = ref None in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Map (a, l, b) ->
                Mem.Tlb.map t ~vaddr:(Int64.of_int a) ~len:l (prot_of_bits b);
                true
            | Unmap (a, l) ->
                Mem.Tlb.unmap t ~vaddr:(Int64.of_int a) ~len:l;
                true
            | Touch a ->
                (not (List.mem_assoc (a / 4096) !m.pt))
                || Mem.Tlb.touch t (Int64.of_int a) = List.mem (a / 4096) !m.mru
            | Prot a ->
                let want =
                  Option.value (List.assoc_opt (a / 4096) !m.pt) ~default:Mem.Tlb.prot_none
                in
                Mem.Tlb.protection t (Int64.of_int a) = want
            | Snap ->
                saved := Some (Mem.Tlb.snapshot t, !m);
                true
            | Restore ->
                Option.iter
                  (fun (s, sm) ->
                    Mem.Tlb.restore t s;
                    m := sm)
                  !saved;
                true
          in
          m := tlb_model_step entries !m op;
          agrees && t.Mem.Tlb.hits = !m.m_hits && t.Mem.Tlb.misses = !m.m_misses)
        ops)

(* The TLB translates only mapped pages; a page past the highest mapped
   one is refused rather than silently modelled. *)
let test_tlb_touch_beyond_map () =
  let t = Mem.Tlb.create ~entries:4 () in
  Mem.Tlb.map t ~vaddr:0L ~len:(4 * 4096) Mem.Tlb.prot_rwx;
  Alcotest.(check bool) "mapped page misses then installs" false (Mem.Tlb.touch t 0x3000L);
  Alcotest.(check bool) "past the map reads as unmapped" false
    (Mem.Tlb.protection t 0x10_0000L).Mem.Tlb.valid;
  match Mem.Tlb.touch t 0x10_0000L with
  | _ -> Alcotest.fail "touch past the map accepted"
  | exception Invalid_argument _ -> ()

type cache_op = Access of int * bool (* addr, write *) | C_snap | C_restore

let pp_cache_op = function
  | Access (a, w) -> Printf.sprintf "%s 0x%x" (if w then "write" else "read") a
  | C_snap -> "snapshot"
  | C_restore -> "restore"

(* Per set, the resident (tag, dirty) lines, most recently used first. *)
type cache_model = {
  lines : (int * bool) list array;
  c_hits : int;
  c_misses : int;
  c_writebacks : int;
}

(* One access to the reference cache: the next model and the outcome it
   predicts.  A full set evicts its least recently used line. *)
let cache_model_access ~assoc ~sets m ~line ~write =
  let set = line mod sets and tag = line / sets in
  let ways = m.lines.(set) in
  let lines = Array.copy m.lines in
  match List.assoc_opt tag ways with
  | Some dirty ->
      lines.(set) <- (tag, dirty || write) :: List.remove_assoc tag ways;
      ({ m with lines; c_hits = m.c_hits + 1 }, Mem.Cache.Hit)
  | None ->
      let writeback = List.length ways = assoc && snd (List.nth ways (assoc - 1)) in
      lines.(set) <- (tag, write) :: List.filteri (fun i _ -> i < assoc - 1) ways;
      ( {
          lines;
          c_hits = m.c_hits;
          c_misses = m.c_misses + 1;
          c_writebacks = m.c_writebacks + Bool.to_int writeback;
        },
        Mem.Cache.Miss { writeback } )

let gen_cache_case =
  QCheck.Gen.(
    let* line_bytes = oneofl [ 16; 32 ] in
    let* assoc = oneofl [ 1; 2; 4 ] in
    let* sets = oneofl [ 1; 2; 4; 8 ] in
    (* three times the capacity in lines, so sets overflow *)
    let addr =
      map2
        (fun l off -> (l * line_bytes) + off)
        (int_bound ((3 * sets * assoc) - 1))
        (int_bound (line_bytes - 1))
    in
    let op =
      frequency
        [
          (12, map2 (fun a w -> Access (a, w)) addr bool);
          (1, return C_snap);
          (1, return C_restore);
        ]
    in
    map (fun ops -> ((line_bytes, assoc, sets), ops)) (list_size (int_range 1 120) op))

let arb_cache_case =
  QCheck.make gen_cache_case ~print:(fun ((lb, assoc, sets), ops) ->
      Printf.sprintf "%dB x %d-way x %d sets: %s" lb assoc sets
        (String.concat "; " (List.map pp_cache_op ops)))

let prop_cache_reference =
  QCheck.Test.make ~count:1000 ~name:"cache agrees with a per-set list-LRU reference model"
    arb_cache_case (fun ((line_bytes, assoc, sets), ops) ->
      let size_bytes = line_bytes * assoc * sets in
      let c = Mem.Cache.create ~name:"ref" ~size_bytes ~line_bytes ~assoc in
      let m = ref { lines = Array.make sets []; c_hits = 0; c_misses = 0; c_writebacks = 0 } in
      let saved = ref None in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Access (a, write) ->
                let next, want = cache_model_access ~assoc ~sets !m ~line:(a / line_bytes) ~write in
                m := next;
                Mem.Cache.access c ~addr:(Int64.of_int a) ~write = want
            | C_snap ->
                saved := Some (Mem.Cache.snapshot c, !m);
                true
            | C_restore ->
                Option.iter
                  (fun (s, sm) ->
                    Mem.Cache.restore c s;
                    m := sm)
                  !saved;
                true
          in
          agrees
          && c.Mem.Cache.hits = !m.c_hits
          && c.Mem.Cache.misses = !m.c_misses
          && c.Mem.Cache.writebacks = !m.c_writebacks)
        ops)

(* Snapshot/restore with dirty-page tracking: every page written after
   [snapshot] is tracked, [restore] rewinds the whole memory to the
   snapshot image (touching only those pages), and the dirty map comes
   back empty so a following restore is O(nothing). *)
let prop_phys_snapshot_roundtrip =
  QCheck.Test.make ~count:150 ~name:"snapshot/restore rewinds dirtied pages exactly"
    QCheck.(list_of_size Gen.(int_range 1 8) (int_bound 0xFFF8))
    (fun addrs ->
      let size = 0x10000 in
      let p = Mem.Phys.create ~size_bytes:size in
      for i = 0 to (size / 8) - 1 do
        Mem.Phys.write_u64 p (Int64.of_int (i * 8)) (Int64.of_int ((i * 1103515245) + 12345))
      done;
      let snap = Mem.Phys.snapshot p in
      List.iter (fun a -> Mem.Phys.write_u64 p (Int64.of_int a) 0xDEAD_BEEF_0BAD_F00DL) addrs;
      let dirty = Mem.Phys.dirty_pages p in
      let tracked = List.for_all (fun a -> List.mem (a / Mem.Phys.page_bytes) dirty) addrs in
      let restored = Mem.Phys.restore p snap in
      let intact = ref true in
      for i = 0 to (size / 8) - 1 do
        if
          not
            (Int64.equal
               (Mem.Phys.read_u64 p (Int64.of_int (i * 8)))
               (Int64.of_int ((i * 1103515245) + 12345)))
        then intact := false
      done;
      tracked && restored = List.length dirty && !intact && Mem.Phys.dirty_pages p = [])

(* Reference model for physical memory: a plain [Bytes] image, a
   per-page "written since the snapshot" flag and a list of snapshot
   copies, driven in lockstep with [Phys] through random sequences on a
   non-page-multiple image.  Every read, every [Bus_error], every
   [dirty_pages] list and every [restore] page count must agree, pages
   first written after a snapshot included (they restore to zero). *)

let phys_size = 0x5803 (* 5.5 pages and 3 bytes: the last page is partial and ends mid-word *)

type phys_op =
  | P_write of int * int * int64 (* width, address, value *)
  | P_write_bytes of int * string
  | P_read of int * int (* width, address *)
  | P_read_bytes of int * int (* address, length *)
  | P_snap
  | P_restore of int (* 0 = the newest snapshot; k > 0 is k snapshots older, so stale *)

let pp_phys_op = function
  | P_write (w, a, v) -> Printf.sprintf "write%d 0x%x 0x%Lx" (8 * w) a v
  | P_write_bytes (a, b) -> Printf.sprintf "write_bytes 0x%x len=%d" a (String.length b)
  | P_read (w, a) -> Printf.sprintf "read%d 0x%x" (8 * w) a
  | P_read_bytes (a, l) -> Printf.sprintf "read_bytes 0x%x len=%d" a l
  | P_snap -> "snapshot"
  | P_restore k -> Printf.sprintf "restore %d" k

type phys_model = {
  image : Bytes.t;
  written : bool array; (* per page: written since the newest snapshot *)
  mutable snaps : Bytes.t list; (* newest first *)
}

let phys_model_in_range a len = a >= 0 && a < phys_size && a + len <= phys_size

let phys_model_mark m a len =
  if len > 0 then
    for p = a / Mem.Phys.page_bytes to (a + len - 1) / Mem.Phys.page_bytes do
      m.written.(p) <- true
    done

let phys_model_dirty m =
  List.filter (fun p -> m.written.(p)) (List.init (Array.length m.written) Fun.id)

let gen_phys_ops =
  QCheck.Gen.(
    (* Page-boundary neighbourhoods, the whole image, and just outside it. *)
    let addr =
      frequency
        [
          (3, map2 (fun p d -> (p * 4096) + d) (int_bound 6) (int_range (-9) 9));
          (3, int_bound (phys_size - 1));
          (1, int_range (-16) (-1));
          (1, int_range (phys_size - 24) (phys_size + 16));
        ]
    in
    let width = oneofl [ 1; 2; 4; 8 ] in
    let op =
      frequency
        [
          (6, map3 (fun w a v -> P_write (w, a, v)) width addr ui64);
          (2, map2 (fun a b -> P_write_bytes (a, b)) addr (string_size (int_bound 40)));
          (6, map2 (fun w a -> P_read (w, a)) width addr);
          (2, map2 (fun a l -> P_read_bytes (a, l)) addr (int_bound 40));
          (1, return P_snap);
          (2, map (fun k -> P_restore k) (frequency [ (4, return 0); (1, int_range 1 2) ]));
        ]
    in
    list_size (int_range 1 60) op)

let arb_phys_ops =
  QCheck.make gen_phys_ops ~print:(fun ops -> String.concat "; " (List.map pp_phys_op ops))

let prop_phys_reference =
  QCheck.Test.make ~count:1000 ~name:"physical memory agrees with a Bytes reference model"
    arb_phys_ops (fun ops ->
      let p = Mem.Phys.create ~size_bytes:phys_size in
      let m =
        {
          image = Bytes.make phys_size '\000';
          written = Array.make ((phys_size + Mem.Phys.page_bytes - 1) / Mem.Phys.page_bytes) false;
          snaps = [];
        }
      in
      let snaps = ref [] (* [Phys] snapshots, newest first *) in
      (* [Some v] or [None] for a [Bus_error], on both sides. *)
      let guard f = try Some (f ()) with Mem.Phys.Bus_error _ -> None in
      let ok = ref true in
      List.iter
        (fun op ->
          let agrees =
            match op with
            | P_write (w, a, v) ->
                let addr = Int64.of_int a in
                let got =
                  guard (fun () ->
                      match w with
                      | 1 -> Mem.Phys.write_u8 p addr (Int64.to_int v)
                      | 2 -> Mem.Phys.write_u16 p addr (Int64.to_int v)
                      | 4 -> Mem.Phys.write_u32 p addr (Int64.to_int v)
                      | _ -> Mem.Phys.write_u64 p addr v)
                in
                let want = phys_model_in_range a w in
                if want then begin
                  let b = Bytes.create 8 in
                  Bytes.set_int64_le b 0 v;
                  Bytes.blit b 0 m.image a w;
                  phys_model_mark m a w
                end;
                Option.is_some got = want
            | P_write_bytes (a, b) ->
                let got = guard (fun () -> Mem.Phys.write_bytes p (Int64.of_int a) (Bytes.of_string b)) in
                let want = phys_model_in_range a (String.length b) in
                if want then begin
                  Bytes.blit_string b 0 m.image a (String.length b);
                  phys_model_mark m a (String.length b)
                end;
                Option.is_some got = want
            | P_read (w, a) ->
                let addr = Int64.of_int a in
                let got =
                  guard (fun () ->
                      match w with
                      | 1 -> Int64.of_int (Mem.Phys.read_u8 p addr)
                      | 2 -> Int64.of_int (Mem.Phys.read_u16 p addr)
                      | 4 -> Int64.of_int (Mem.Phys.read_u32 p addr)
                      | _ -> Mem.Phys.read_u64 p addr)
                in
                let want =
                  if not (phys_model_in_range a w) then None
                  else
                    let b = Bytes.make 8 '\000' in
                    Bytes.blit m.image a b 0 w;
                    Some (Bytes.get_int64_le b 0)
                in
                got = want
            | P_read_bytes (a, l) ->
                let got = guard (fun () -> Mem.Phys.read_bytes p (Int64.of_int a) l) in
                let want = if phys_model_in_range a l then Some (Bytes.sub m.image a l) else None in
                got = want
            | P_snap ->
                snaps := Mem.Phys.snapshot p :: !snaps;
                m.snaps <- Bytes.copy m.image :: m.snaps;
                Array.fill m.written 0 (Array.length m.written) false;
                true
            | P_restore k -> (
                match (List.nth_opt !snaps k, List.nth_opt m.snaps k) with
                | Some s, Some image when k = 0 ->
                    let want = List.length (phys_model_dirty m) in
                    Bytes.blit image 0 m.image 0 phys_size;
                    Array.fill m.written 0 (Array.length m.written) false;
                    Mem.Phys.restore p s = want
                | Some s, Some _ -> (
                    match Mem.Phys.restore p s with
                    | _ -> false
                    | exception Invalid_argument _ -> true)
                | _ -> true)
          in
          ok := !ok && agrees && Mem.Phys.dirty_pages p = phys_model_dirty m)
        ops;
      !ok && Bytes.equal (Mem.Phys.read_bytes p 0L phys_size) m.image)

(* The image is mapped on first touch: a 256 MiB machine written once
   every 32 MiB, and a snapshot of it, stay resident in a few pages
   rather than the configured size. *)
let vm_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb / 1024)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let test_phys_lazy () =
  let before = vm_rss_mb () in
  let p = Mem.Phys.create ~size_bytes:(256 lsl 20) in
  for k = 0 to 7 do
    Mem.Phys.write_u64 p (Int64.of_int (k * (32 lsl 20))) (Int64.of_int (k + 1))
  done;
  let written = vm_rss_mb () - before in
  if written >= 32 then Alcotest.failf "256 MiB image grew VmRSS by %d MiB" written;
  let s = Mem.Phys.snapshot p in
  Mem.Phys.write_u64 p (Int64.of_int (255 lsl 20)) 9L;
  Alcotest.(check int) "restore" 1 (Mem.Phys.restore p s);
  let snapped = vm_rss_mb () - before in
  if snapped >= 32 then Alcotest.failf "snapshot grew VmRSS to %d MiB" snapped;
  Alcotest.(check int64) "touched word" 8L (Mem.Phys.read_u64 p (Int64.of_int (7 * (32 lsl 20))));
  Alcotest.(check int64) "untouched page" 0L (Mem.Phys.read_u64 p (Int64.of_int (255 lsl 20)))

(* A snapshot is tied to the dirty map that was cleared when it was
   taken: once a newer snapshot exists, restoring an older one would
   rewind pages the map no longer tracks, so it must be refused. *)
let test_phys_snapshot_stale () =
  let p = Mem.Phys.create ~size_bytes:0x1800 in
  (* non-page-multiple size: the last (partial) page restores clamped *)
  Mem.Phys.write_u64 p 0x1400L 7L;
  let s1 = Mem.Phys.snapshot p in
  Mem.Phys.write_u64 p 0x1400L 9L;
  let _s2 = Mem.Phys.snapshot p in
  (match Mem.Phys.restore p s1 with
  | _ -> Alcotest.fail "stale snapshot accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int64) "newer snapshot's image stands" 9L (Mem.Phys.read_u64 p 0x1400L)

(* Tag-table restore is page-granular so Machine.restore can rewind tags
   for exactly the pages whose data it rewinds. *)
let test_tags_restore_page () =
  let t = Mem.Tags.create ~mem_size:0x4000 () in
  Mem.Tags.set t 0x1000L true;
  Mem.Tags.set t 0x2020L true;
  let snap = Mem.Tags.snapshot t in
  Mem.Tags.set t 0x1000L false;
  Mem.Tags.set t 0x2020L false;
  Mem.Tags.set t 0x1040L true;
  Mem.Tags.restore_page t snap ~page_bytes:0x1000 1;
  Alcotest.(check bool) "page 1 tag restored" true (Mem.Tags.get t 0x1000L);
  Alcotest.(check bool) "page 1 spurious tag cleared" false (Mem.Tags.get t 0x1040L);
  Alcotest.(check bool) "page 2 untouched by page-1 restore" false (Mem.Tags.get t 0x2020L);
  Mem.Tags.restore_all t snap;
  Alcotest.(check bool) "restore_all recovers page 2" true (Mem.Tags.get t 0x2020L)

(* Cache.create indexes by shift/mask, so it must reject geometries the
   fast path cannot represent — with messages that say which parameter
   is at fault. *)
let test_cache_geometry_validation () =
  let rejects frag f =
    match f () with
    | _ -> Alcotest.failf "geometry accepted (expected rejection: %s)" frag
    | exception Invalid_argument msg ->
        let nl = String.length frag and hl = String.length msg in
        let rec go i = i + nl <= hl && (String.sub msg i nl = frag || go (i + 1)) in
        Alcotest.(check bool) (Printf.sprintf "error %S mentions %s" msg frag) true (go 0)
  in
  (* non-power-of-two line size *)
  rejects "line_bytes 24" (fun () ->
      Mem.Cache.create ~name:"bad" ~size_bytes:4608 ~line_bytes:24 ~assoc:2);
  (* pow2 lines but a non-pow2 derived set count: 6144 / (32*2) = 96 sets *)
  rejects "not a power of two" (fun () ->
      Mem.Cache.create ~name:"bad" ~size_bytes:6144 ~line_bytes:32 ~assoc:2);
  (* size not divisible by line_bytes*assoc at all *)
  rejects "not a multiple" (fun () ->
      Mem.Cache.create ~name:"bad" ~size_bytes:4100 ~line_bytes:32 ~assoc:2);
  (* and a valid pow2 geometry still constructs *)
  let c = Mem.Cache.create ~name:"ok" ~size_bytes:4096 ~line_bytes:32 ~assoc:2 in
  Alcotest.(check int) "size round-trips" 4096 (Mem.Cache.size_bytes c)

(* Tags.line_index shifts by log2 line_bytes, so the table refuses a
   granularity that is not a power of two. *)
let test_tags_granularity_validation () =
  (match Mem.Tags.create ~line_bytes:24 ~mem_size:0x1000 () with
  | _ -> Alcotest.fail "24-byte tag lines accepted"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun g ->
      let t = Mem.Tags.create ~line_bytes:g ~mem_size:0x1000 () in
      Alcotest.(check int) (Printf.sprintf "%d-byte lines index by shift" g) (0xFE0 / g)
        (Mem.Tags.line_index t 0xFE0L))
    [ 16; 32 ]

let test_hierarchy_dram_accounting () =
  let h = Mem.Hierarchy.create () in
  Mem.Tlb.map h.Mem.Hierarchy.tlb ~vaddr:0L ~len:0x100000 Mem.Tlb.prot_rwx;
  (* 1000 distinct lines: all compulsory misses reach DRAM *)
  for i = 0 to 999 do
    ignore (Mem.Hierarchy.access_data h ~addr:(Int64.of_int (i * 32)) ~size:8 ~write:false)
  done;
  Alcotest.(check bool) "DRAM read bytes counted" true (h.Mem.Hierarchy.dram_read_bytes >= 1000 * 32);
  (* re-touch: all resident in L2 (32KB < 64KB), no new DRAM traffic *)
  let before = h.Mem.Hierarchy.dram_read_bytes in
  for i = 0 to 999 do
    ignore (Mem.Hierarchy.access_data h ~addr:(Int64.of_int (i * 32)) ~size:8 ~write:false)
  done;
  Alcotest.(check int) "steady state" before h.Mem.Hierarchy.dram_read_bytes

let test_hierarchy_writeback () =
  let h = Mem.Hierarchy.create () in
  Mem.Tlb.map h.Mem.Hierarchy.tlb ~vaddr:0L ~len:0x4000000 Mem.Tlb.prot_rwx;
  (* dirty many lines, then evict them with a large sweep: writebacks *)
  for i = 0 to 4095 do
    ignore (Mem.Hierarchy.access_data h ~addr:(Int64.of_int (i * 32)) ~size:8 ~write:true)
  done;
  for i = 0 to 16383 do
    ignore
      (Mem.Hierarchy.access_data h ~addr:(Int64.of_int (0x100000 + (i * 32))) ~size:8 ~write:false)
  done;
  Alcotest.(check bool) "writebacks reached DRAM" true (h.Mem.Hierarchy.dram_write_bytes > 0)

let suites =
  [
    qsuite "mem-properties"
      [
        prop_phys_roundtrip;
        prop_phys_bus_error;
        prop_tags_store_clears;
        prop_tags_neighbours_unaffected;
        prop_cache_rehit;
        prop_cache_working_set;
        prop_tlb_reach;
        prop_tlb_reference;
        prop_cache_reference;
        prop_phys_snapshot_roundtrip;
        prop_phys_reference;
      ];
    ( "mem-snapshot",
      [
        Alcotest.test_case "stale snapshot refused" `Quick test_phys_snapshot_stale;
        Alcotest.test_case "image is mapped on first touch" `Quick test_phys_lazy;
        Alcotest.test_case "tags restore by page" `Quick test_tags_restore_page;
      ] );
    ( "mem-hierarchy",
      [
        Alcotest.test_case "cache geometry validation" `Quick test_cache_geometry_validation;
        Alcotest.test_case "tag granularity validation" `Quick test_tags_granularity_validation;
        Alcotest.test_case "TLB touch past the map" `Quick test_tlb_touch_beyond_map;
        Alcotest.test_case "DRAM accounting" `Quick test_hierarchy_dram_accounting;
        Alcotest.test_case "writeback traffic" `Quick test_hierarchy_writeback;
      ] );
  ]
