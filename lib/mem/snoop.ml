(* Store-snoop coherence filter for translated code.

   The machine's superblock tier caches pre-decoded straight-line regions
   of the instruction stream.  Like a hardware trace cache, those copies
   must be kept coherent with the memory image: a store that lands inside
   a translated region has to retire the translation before it can next
   execute.  This module is the filter in front of that (expensive)
   retirement: it tracks a conservative over-approximation — the convex
   hull, as physical byte addresses, of every region translated since the
   last flush — so the per-store probe is two integer compares and almost
   never fires for ordinary data traffic (code and data live in disjoint
   address ranges in every workload this machine runs).

   False positives (a store between two translated regions) cost a
   redundant flush, never correctness; false negatives cannot occur
   because [cover] is called for every translation. *)

type t = {
  mutable lo : int; (* inclusive lower bound of the covered hull *)
  mutable hi : int; (* exclusive upper bound of the covered hull *)
}

let create () = { lo = max_int; hi = min_int }

(* Forget all covered ranges (the owner just retired its translations). *)
let clear t =
  t.lo <- max_int;
  t.hi <- min_int

(* Extend the hull to include [lo, hi). *)
let cover t ~lo ~hi =
  if lo < t.lo then t.lo <- lo;
  if hi > t.hi then t.hi <- hi

(* Does a store of [size] bytes at [addr] intersect the covered hull?
   The caller retires its translations (and [clear]s) on [true]. *)
let hit t ~addr ~size = addr < t.hi && addr + size > t.lo
