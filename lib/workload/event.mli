(** Object-level trace events for the limit study (paper §7).

    The workloads run against an instrumented object-graph runtime which
    emits these events; each protection model replays the stream, laying
    objects out under its own pointer representation (docs/MODELS.md). *)

type region = Heap | Stack | Global

(** A field is a pointer slot (inflated or shadowed by the models) or a
    scalar of a given byte size. *)
type field = Ptr | Scalar of int

type layout = field array

(** Byte size of a layout under a pointer representation of [ptr_bytes]. *)
val layout_bytes : ptr_bytes:int -> layout -> int

(** Byte offset of field [i], pointers naturally aligned. *)
val field_offset : ptr_bytes:int -> layout -> int -> int

val field_size : ptr_bytes:int -> field -> int

type t =
  | Alloc of { id : int; layout : layout; region : region }
  | Free of { id : int }
  | Read of { obj : int; field : int }
  | Write of { obj : int; field : int; ptr_value : bool; target : int option }
      (** [target]: id of the pointee when a pointer is stored — lets
          referent-dependent models (Hardbound) find the object's size. *)
  | Compute of int  (** this many non-memory instructions elapsed *)

type sink = t -> unit

val pp : Format.formatter -> t -> unit
