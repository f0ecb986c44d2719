(* The capability tag table (Section 4.2).

   CHERI tags *physical* memory: one tag bit per 256-bit (32-byte) line,
   i.e. 4 MB of tag space per gigabyte.  A tag manager below the last-level
   cache associates each transaction with its tag.  The architectural
   rules, enforced here:

     - a capability store with a valid tag sets the line's tag;
     - a capability store of an untagged register leaves the tag clear
       (capability registers may carry plain data — this is what lets
       memcpy move mixed data/capability structures);
     - ANY other store to the line clears the tag, protecting capability
       integrity against forgery through data writes. *)

type t = {
  bits : Bytes.t;
  mem_size : int;
  line_bytes : int;
  line_bits : int; (* log2 line_bytes: address -> line index by shift *)
  mutable on_write : (set:bool -> addr:int64 -> unit) option;
      (* observability hook: every architectural tag write (capability
         store sets or clears; general-purpose store clears) is reported
         with the data address.  [None] (the default) costs one pattern
         match; purely an observer — never changes the tag bits. *)
}

(* Default tag granularity: one bit per 256-bit (32-byte) line; a 128-bit
   capability machine tags 16-byte lines instead. *)
let line_bytes = 32

let create ?(line_bytes = line_bytes) ~mem_size () =
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Tags.create: line_bytes %d is not a power of two (shift indexing)"
         line_bytes);
  let rec log2 b v = if v <= 1 then b else log2 (b + 1) (v lsr 1) in
  {
    bits = Bytes.make (((mem_size / line_bytes) + 7) / 8) '\000';
    mem_size;
    line_bytes;
    line_bits = log2 0 line_bytes;
    on_write = None;
  }

(* Physical addresses fit a native int (63 bits), so this is a shift. *)
let line_index t addr = Int64.to_int addr lsr t.line_bits
let granularity t = t.line_bytes

let get t addr =
  let i = line_index t addr in
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit t i v =
  let b = Char.code (Bytes.get t.bits (i lsr 3)) in
  let b = if v then b lor (1 lsl (i land 7)) else b land lnot (1 lsl (i land 7)) in
  Bytes.set t.bits (i lsr 3) (Char.chr b)

let set_on_write t f = t.on_write <- f
let fire t ~set ~addr = match t.on_write with None -> () | Some f -> f ~set ~addr

let set t addr v =
  set_bit t (line_index t addr) v;
  fire t ~set:v ~addr

(* Clear the tags of every line overlapped by a [size]-byte store at [addr]:
   the consequence of a general-purpose (non-capability) store.  One
   [on_write] event fires per store, not per line — attribution counts
   architectural tag writes, not bit flips. *)
let clear_range t addr size =
  let first = line_index t addr in
  let last = line_index t (Int64.add addr (Int64.of_int (size - 1))) in
  for i = first to last do
    set_bit t i false
  done;
  fire t ~set:false ~addr

(* Snapshot/restore for the warm-server reset: the tag table is tiny
   (one bit per line, a few KiB for a 16 MiB machine) so the snapshot is
   a plain copy; restore follows the physical memory's dirty-page list,
   blitting back the byte range of tag bits covering each dirty page.
   With line_bytes >= 16 and 4 KiB pages each page covers a whole number
   of tag bytes, so the blit is byte-aligned; the arithmetic clamps for
   safety anyway. *)
type snapshot = Bytes.t

let snapshot t = Bytes.copy t.bits

let restore_page t (snap : snapshot) ~page_bytes p =
  let lines_per_page = page_bytes / t.line_bytes in
  let first_bit = p * lines_per_page in
  let first = first_bit lsr 3 in
  let last = (first_bit + lines_per_page - 1) lsr 3 in
  let last = min last (Bytes.length t.bits - 1) in
  if first <= last then Bytes.blit snap first t.bits first (last - first + 1)

let restore_all t (snap : snapshot) = Bytes.blit snap 0 t.bits 0 (Bytes.length t.bits)
