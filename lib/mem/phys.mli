(** Physical memory: a flat byte array with little-endian scalar
    accessors.  Raises {!Bus_error} outside the populated range, which the
    machine turns into an address-error exception. *)

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

    Every write path marks its 4 KiB page dirty; {!snapshot} copies the
    whole image once and clears the dirty map, after which {!restore}
    only blits back the pages written since — the fast-reset primitive
    behind the warm server pool (docs/PERFORMANCE.md). *)

val page_bytes : int
(** Dirty-tracking granule: 4096. *)

type snapshot

val snapshot : t -> snapshot
(** Capture the full image and start dirty tracking from a clean slate.
    Taking a new snapshot invalidates earlier ones (stamp check). *)

val restore : t -> snapshot -> int
(** Blit back every dirty page from the snapshot and clear the dirty
    map; returns the number of pages restored.  @raise Invalid_argument
    on a snapshot made stale by a later {!snapshot}. *)

val dirty_pages : t -> int list
(** Page indices written since the last {!snapshot} (ascending). *)
