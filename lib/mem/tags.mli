(** The capability tag table (Section 4.2 of the paper).

    CHERI tags {e physical} memory: one tag bit per capability-sized line
    (32 bytes for the 256-bit format, 16 for the compressed machine).
    The architectural rules enforced through this module:

    - a capability store with a valid tag sets the line's tag;
    - storing an untagged register leaves the tag clear;
    - any general-purpose store to the line {e clears} the tag — in-memory
      capabilities cannot be forged by data writes. *)

type t

(** Default tag granularity in bytes (32 = one bit per 256 bits). *)
val line_bytes : int

(** @raise Invalid_argument when [line_bytes] is not a power of two. *)
val create : ?line_bytes:int -> mem_size:int -> unit -> t

(** Install (or with [None] remove) the observability hook: called with
    the data address on every architectural tag write — [set = true] for
    a tagged capability store, [false] for any clearing store.  Purely an
    observer; the default [None] costs one pattern match per write. *)
val set_on_write : t -> (set:bool -> addr:int64 -> unit) option -> unit

(** Index of the tag line covering a physical address. *)
val line_index : t -> int64 -> int

(** The table's own line granularity in bytes (32 or 16). *)
val granularity : t -> int

(** Tag of the line containing the address. *)
val get : t -> int64 -> bool

val set : t -> int64 -> bool -> unit

(** Clear the tags of every line overlapped by a [size]-byte store at the
    address: the effect of a general-purpose store. *)
val clear_range : t -> int64 -> int -> unit

(** {1 Snapshot / restore} — rides the physical memory's dirty-page
    list: {!restore_page} blits back the tag bits covering one dirty
    [page_bytes]-sized physical page. *)

type snapshot

val snapshot : t -> snapshot

val restore_page : t -> snapshot -> page_bytes:int -> int -> unit

(** Restore the whole table (tests / non-dirty-tracked callers). *)
val restore_all : t -> snapshot -> unit
