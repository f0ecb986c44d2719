(* Object-level trace events for the limit study (Section 7).

   The paper records complete instruction traces of Olden benchmarks on the
   baseline MIPS implementation, then extracts "information relevant to
   bounds checking: C memory-management functions such as malloc() and
   free(), and all memory loads and stores", tracking accesses to objects
   in globals, heap and stack.  Our equivalent: the workloads run against
   an instrumented object-graph runtime which emits *object-level* events —
   allocation with a typed field layout, per-field reads and writes, and
   the surrounding computation.  Each protection model then replays the
   event stream, laying objects out under its own pointer representation
   and simulating the extra memory accesses, instructions, TLB/cache
   behaviour, and system calls that an ideal implementation would incur. *)

type region = Heap | Stack | Global

(* A field is a pointer slot or a scalar of a given byte size.  Pointer
   slots are what the models inflate (fat pointers) or shadow (tables). *)
type field = Ptr | Scalar of int

type layout = field array

(* Size of a layout under a given pointer representation. *)
let layout_bytes ~ptr_bytes l =
  Array.fold_left
    (fun acc f -> acc + match f with Ptr -> ptr_bytes | Scalar n -> n)
    0 l

(* Byte offset of field [i] under a pointer representation, with pointers
   naturally aligned. *)
let field_offset ~ptr_bytes l i =
  let align v a = (v + a - 1) / a * a in
  let rec go off j =
    match l.(j) with
    | Ptr ->
        let off = align off ptr_bytes in
        if j = i then off else go (off + ptr_bytes) (j + 1)
    | Scalar n ->
        let off = align off (min n 8) in
        if j = i then off else go (off + n) (j + 1)
  in
  go 0 0

let field_size ~ptr_bytes = function Ptr -> ptr_bytes | Scalar n -> n

type t =
  | Alloc of { id : int; layout : layout; region : region }
  | Free of { id : int }
  | Read of { obj : int; field : int }
  | Write of { obj : int; field : int; ptr_value : bool; target : int option }
    (* [target]: id of the object the stored pointer refers to, when a
       pointer is stored — lets models that compress or shadow bounds by
       referent (Hardbound) find the pointee's size. *)
  | Compute of int (* this many non-memory instructions elapsed *)

(* A sink consumes the event stream; protection models implement this. *)
type sink = t -> unit

let pp ppf = function
  | Alloc { id; layout; region } ->
      Fmt.pf ppf "alloc #%d (%d fields, %s)" id (Array.length layout)
        (match region with Heap -> "heap" | Stack -> "stack" | Global -> "global")
  | Free { id } -> Fmt.pf ppf "free #%d" id
  | Read { obj; field } -> Fmt.pf ppf "read #%d.%d" obj field
  | Write { obj; field; ptr_value; target = _ } ->
      Fmt.pf ppf "write #%d.%d%s" obj field (if ptr_value then " (ptr)" else "")
  | Compute n -> Fmt.pf ppf "compute %d" n
