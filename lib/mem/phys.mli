(** Physical memory: a flat byte image with little-endian scalar
    accessors.  Raises {!Bus_error} outside the populated range, which the
    machine turns into an address-error exception.

    The image is zero-initialised memory that the OS maps on first touch
    and that is not charged to the GC, so {!create} costs the same for any
    size and a machine's resident memory follows the pages it writes. *)

exception Bus_error of int64

type t

val create : size_bytes:int -> t
val size : t -> int

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u16 : t -> int64 -> int
val write_u16 : t -> int64 -> int -> unit
val read_u32 : t -> int64 -> int
val write_u32 : t -> int64 -> int -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit

(** One bounds check for a [len]-byte image at [addr]; the returned byte
    index feeds {!get_u64}/{!set_u64} at word offsets within the image.
    @raise Bus_error when the image overruns the populated range. *)
val image_index : t -> int64 -> int -> int

val get_u64 : t -> int -> int64

val set_u64 : t -> int -> int64 -> unit

val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit

(** {1 Snapshot / restore}

    Every write path marks its 4 KiB page dirty and touched; {!snapshot}
    copies the touched pages (all others are still zero) and clears the
    dirty map, after which {!restore} only copies back the pages written
    since — the fast-reset primitive behind the warm server pool
    (docs/PERFORMANCE.md). *)

val page_bytes : int
(** Dirty-tracking granule: 4096. *)

type snapshot

val snapshot : t -> snapshot
(** Capture the image, copying only the pages ever written, and start
    dirty tracking from a clean slate.  Taking a new snapshot invalidates
    earlier ones (stamp check). *)

val restore : t -> snapshot -> int
(** Copy back every dirty page from the snapshot (a page first written
    after it returns to zero) and clear the dirty map; returns the number
    of pages restored.  @raise Invalid_argument
    on a snapshot made stale by a later {!snapshot}. *)

val dirty_pages : t -> int list
(** Page indices written since the last {!snapshot} (ascending). *)
