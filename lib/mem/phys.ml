(* Physical memory: a flat byte image with little-endian scalar accessors.

   (BERI is big-endian MIPS; we model memory little-endian since no
   reproduced result depends on byte order — noted in DESIGN.md.)  Raises
   [Bus_error] for accesses outside the populated range, which the machine
   turns into an address-error exception.

   The image is a private mapping of /dev/zero: the OS hands out zeroed
   pages on first touch, so creating a 64 MiB machine costs a system call
   rather than a 64 MiB fill, and a run is charged only for the pages it
   writes.  The mapping lives outside the OCaml heap and is not reported
   to the GC (a bigarray from [Unix.map_file] is a custom block of a few
   words): reporting its configured size would pace the major collector
   as if every machine had filled its whole image (docs/PERFORMANCE.md,
   "Machine creation and memory").  The munmap happens when the image is
   collected.

   Dirty-page tracking: every write path marks its 4 KiB page in a
   byte-per-page map with two bits — written since the last [snapshot],
   and ever written.  [snapshot] copies only ever-written pages (the rest
   are still zero) into a fresh lazy image, and [restore] copies back
   only the pages written since: the warm-server reset in lib/serve
   rewinds a 16 MiB machine by touching a few dozen pages.  The map
   costs one unsafe byte store per write (two when a scalar spans a page
   boundary), which is noise next to the bounds check. *)

exception Bus_error of int64

let page_bits = 12
let page_bytes = 1 lsl page_bits

type image = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Native-order accessors without a second bounds check: every caller
   has passed [index] (or works within a page of the image). *)
external get16 : image -> int -> int = "%caml_bigstring_get16u"
external set16 : image -> int -> int -> unit = "%caml_bigstring_set16u"
external get32 : image -> int -> int32 = "%caml_bigstring_get32u"
external set32 : image -> int -> int32 -> unit = "%caml_bigstring_set32u"
external get64 : image -> int -> int64 = "%caml_bigstring_get64u"
external set64 : image -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external big_endian : unit -> bool = "%big_endian"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Dirty-map bits.  A write sets both; [snapshot] clears [since_snap]. *)
let since_snap = '\003'
let touched = '\002'

type t = {
  data : image;
  size : int;
  dirty : Bytes.t; (* one byte per page: [since_snap], [touched] or zero *)
  mutable snap_stamp : int; (* bumped by [snapshot]; restore checks it *)
}

type snapshot = { base : image; stamp : int }

(* A zeroed image the OS populates page by page as it is touched. *)
let zeroed size_bytes =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size_bytes |]))

let create ~size_bytes =
  let pages = (size_bytes + page_bytes - 1) lsr page_bits in
  {
    data = zeroed size_bytes;
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
  Bytes.unsafe_set t.dirty (i lsr page_bits) since_snap;
  let last = (i + len - 1) lsr page_bits in
  if last <> i lsr page_bits then Bytes.unsafe_set t.dirty last since_snap

let mark_range t i len =
  if len > 0 then
    for p = i lsr page_bits to (i + len - 1) lsr page_bits do
      Bytes.unsafe_set t.dirty p since_snap
    done

let read_u8 t addr = Char.code (Bigarray.Array1.unsafe_get t.data (index t addr 1))

let write_u8 t addr v =
  let i = index t addr 1 in
  mark t i 1;
  Bigarray.Array1.unsafe_set t.data i (Char.unsafe_chr (v land 0xFF))

let read_u16 t addr =
  let v = get16 t.data (index t addr 2) in
  if big_endian () then swap16 v else v

let write_u16 t addr v =
  let i = index t addr 2 in
  mark t i 2;
  let v = v land 0xFFFF in
  set16 t.data i (if big_endian () then swap16 v else v)

let read_u32 t addr =
  let v = get32 t.data (index t addr 4) in
  Int32.to_int (if big_endian () then swap32 v else v) land 0xFFFF_FFFF

let write_u32 t addr v =
  let i = index t addr 4 in
  mark t i 4;
  let v = Int32.of_int v in
  set32 t.data i (if big_endian () then swap32 v else v)

let[@inline] get_u64 t i =
  let v = get64 t.data i in
  if big_endian () then swap64 v else v

let[@inline] put_u64 t i v = set64 t.data i (if big_endian () then swap64 v else v)
let read_u64 t addr = get_u64 t (index t addr 8)

let write_u64 t addr v =
  let i = index t addr 8 in
  mark t i 8;
  put_u64 t i v

(* Multi-word image access (capability loads/stores): one bounds check
   for the whole [len]-byte image, then per-word reads/writes at byte
   indices — no intermediate buffer. *)
let image_index t addr len = index t addr len

let set_u64 t i v =
  mark t i 8;
  put_u64 t i v

(* Byte-string transfers copy a native word at a time, then the tail
   bytes: the word copy keeps the byte order, and allocates nothing
   beyond [read_bytes]'s result. *)
let read_bytes t addr len =
  let i = index t addr len in
  let b = Bytes.create len in
  let words = len land lnot 7 in
  for k = 0 to (words lsr 3) - 1 do
    bytes_set64 b (k lsl 3) (get64 t.data (i + (k lsl 3)))
  done;
  for k = words to len - 1 do
    Bytes.unsafe_set b k (Bigarray.Array1.unsafe_get t.data (i + k))
  done;
  b

let write_bytes t addr b =
  let len = Bytes.length b in
  let i = index t addr len in
  mark_range t i len;
  let words = len land lnot 7 in
  for k = 0 to (words lsr 3) - 1 do
    set64 t.data (i + (k lsl 3)) (bytes_get64 b (k lsl 3))
  done;
  for k = words to len - 1 do
    Bigarray.Array1.unsafe_set t.data (i + k) (Bytes.unsafe_get b k)
  done

(* Copy page [p] of [src] into [dst] (both [size] bytes). *)
let copy_page ~size (src : image) (dst : image) p =
  let off = p lsl page_bits in
  let len = min page_bytes (size - off) in
  let words = len land lnot 7 in
  for k = 0 to (words lsr 3) - 1 do
    let j = off + (k lsl 3) in
    set64 dst j (get64 src j)
  done;
  for j = off + words to off + len - 1 do
    Bigarray.Array1.unsafe_set dst j (Bigarray.Array1.unsafe_get src j)
  done

let snapshot t =
  t.snap_stamp <- t.snap_stamp + 1;
  let base = zeroed t.size in
  for p = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty p <> '\000' then begin
      copy_page ~size:t.size t.data base p;
      Bytes.unsafe_set t.dirty p touched
    end
  done;
  { base; stamp = t.snap_stamp }

let dirty_pages t =
  let acc = ref [] in
  for p = Bytes.length t.dirty - 1 downto 0 do
    if Bytes.unsafe_get t.dirty p = since_snap then acc := p :: !acc
  done;
  !acc

let restore t snap =
  if snap.stamp <> t.snap_stamp then
    invalid_arg "Phys.restore: stale snapshot (a newer snapshot exists)";
  let n = ref 0 in
  for p = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty p = since_snap then begin
      copy_page ~size:t.size snap.base t.data p;
      Bytes.unsafe_set t.dirty p touched;
      incr n
    end
  done;
  !n
