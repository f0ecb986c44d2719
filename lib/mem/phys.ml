(* Physical memory: a flat byte array with little-endian scalar accessors.

   (BERI is big-endian MIPS; we model memory little-endian since no
   reproduced result depends on byte order — noted in DESIGN.md.)  Raises
   [Bus_error] for accesses outside the populated range, which the machine
   turns into an address-error exception.

   Dirty-page tracking: every write path marks its 4 KiB page in a
   byte-per-page map so a [restore] after [snapshot] only has to copy
   back the pages actually written since the snapshot — the warm-server
   reset in lib/serve restores a 16 MiB machine by touching a few dozen
   pages instead of re-blitting (or re-booting) the whole image.  The
   map costs one unsafe byte store per write (two when a scalar spans a
   page boundary), which is noise next to the existing bounds check. *)

exception Bus_error of int64

let page_bits = 12
let page_bytes = 1 lsl page_bits

type t = {
  data : Bytes.t;
  size : int;
  dirty : Bytes.t; (* one byte per page; '\001' = written since snapshot *)
  mutable snap_stamp : int; (* bumped by [snapshot]; restore checks it *)
}

type snapshot = { base : Bytes.t; stamp : int }

let create ~size_bytes =
  let pages = (size_bytes + page_bytes - 1) lsr page_bits in
  {
    data = Bytes.make size_bytes '\000';
    size = size_bytes;
    dirty = Bytes.make (max 1 pages) '\000';
    snap_stamp = 0;
  }

let size t = t.size

let index t addr size =
  let i = Int64.to_int addr in
  if i < 0 || i + size > t.size || Int64.compare addr (Int64.of_int t.size) >= 0
  then raise (Bus_error addr)
  else i

(* Mark the page(s) covered by a write of [len] bytes at byte index [i].
   Scalars are at most 8 bytes so they span at most two pages; the
   common case is one unsafe store. *)
let[@inline] mark t i len =
  Bytes.unsafe_set t.dirty (i lsr page_bits) '\001';
  let last = (i + len - 1) lsr page_bits in
  if last <> i lsr page_bits then Bytes.unsafe_set t.dirty last '\001'

let mark_range t i len =
  if len > 0 then
    for p = i lsr page_bits to (i + len - 1) lsr page_bits do
      Bytes.unsafe_set t.dirty p '\001'
    done

let read_u8 t addr = Char.code (Bytes.get t.data (index t addr 1))

let write_u8 t addr v =
  let i = index t addr 1 in
  mark t i 1;
  Bytes.set t.data i (Char.chr (v land 0xFF))

let read_u16 t addr = Bytes.get_uint16_le t.data (index t addr 2)

let write_u16 t addr v =
  let i = index t addr 2 in
  mark t i 2;
  Bytes.set_uint16_le t.data i (v land 0xFFFF)

let read_u32 t addr = Int32.to_int (Bytes.get_int32_le t.data (index t addr 4)) land 0xFFFF_FFFF

let write_u32 t addr v =
  let i = index t addr 4 in
  mark t i 4;
  Bytes.set_int32_le t.data i (Int32.of_int v)

let read_u64 t addr = Bytes.get_int64_le t.data (index t addr 8)

let write_u64 t addr v =
  let i = index t addr 8 in
  mark t i 8;
  Bytes.set_int64_le t.data i v

(* Multi-word image access (capability loads/stores): one bounds check
   for the whole [len]-byte image, then per-word reads/writes at byte
   indices — no intermediate buffer. *)
let image_index t addr len = index t addr len
let get_u64 t i = Bytes.get_int64_le t.data i

let set_u64 t i v =
  mark t i 8;
  Bytes.set_int64_le t.data i v

let read_bytes t addr len =
  let i = index t addr len in
  Bytes.sub t.data i len

let write_bytes t addr b =
  let i = index t addr (Bytes.length b) in
  mark_range t i (Bytes.length b);
  Bytes.blit b 0 t.data i (Bytes.length b)

let snapshot t =
  t.snap_stamp <- t.snap_stamp + 1;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  { base = Bytes.copy t.data; stamp = t.snap_stamp }

let dirty_pages t =
  let acc = ref [] in
  for p = Bytes.length t.dirty - 1 downto 0 do
    if Bytes.unsafe_get t.dirty p <> '\000' then acc := p :: !acc
  done;
  !acc

let restore t snap =
  if snap.stamp <> t.snap_stamp then
    invalid_arg "Phys.restore: stale snapshot (a newer snapshot exists)";
  let n = ref 0 in
  for p = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty p <> '\000' then begin
      let off = p lsl page_bits in
      let len = min page_bytes (t.size - off) in
      Bytes.blit snap.base off t.data off len;
      Bytes.unsafe_set t.dirty p '\000';
      incr n
    end
  done;
  !n
