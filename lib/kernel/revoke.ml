(* Capability revocation by tag sweep (Section 11).

   "The presence of tagged memory also provides opportunities to enforce
   temporal safety.  Tags allow us to identify all references, so we can
   provide accurate garbage collection to low-level languages such as C.
   Possibilities include a non-reuse allocator (to eliminate most dangling
   pointer errors) that periodically runs a tracing pass to identify
   reusable address space."

   Because every capability in the system is identifiable — tagged
   capability-sized lines in memory, plus the register file and PCC —
   revoking a region is a precise sweep: clear the tag of every
   capability whose segment intersects the revoked range.  Dangling
   capabilities then fault on their next use (tag violation), giving
   deterministic temporal safety without address-space reuse hazards.

   The same sweep, run in collection mode, *finds* the live capabilities
   instead: the tracing pass of the paper's non-reuse allocator. *)

open Cap

let intersects c ~base ~length =
  Capability.tag c
  && U64.lt (Capability.base c) (U64.add base length)
  && U64.lt base (U64.add (Capability.base c) (Capability.length c))

(* Sweep statistics. *)
type stats = {
  memory_capabilities_scanned : int;
  memory_capabilities_revoked : int;
  register_capabilities_revoked : int;
}

(* Call [f addr c] for every tagged line of physical memory, in address
   order, with [c] the capability it holds ([Machine.read_cap]).  Lines
   are the tag table's granule, the machine's capability size. *)
let iter_memory_caps (m : Machine.t) f =
  let tags = m.Machine.tags in
  let g = Mem.Tags.granularity tags in
  let mem_size = Mem.Phys.size m.Machine.phys in
  let a = ref 0 in
  while !a < mem_size do
    let addr = Int64.of_int !a in
    if Mem.Tags.get tags addr then f addr (Machine.read_cap m addr ~tag:true);
    a := !a + g
  done

(* [revoke machine ~base ~length] clears the tag of every capability —
   in memory, in the register file, or PCC — that grants access to any
   byte of [base, base+length).  Returns sweep statistics.  The sweep
   reads the tag of every line of physical memory (one bit per
   capability-sized granule) and decodes only the tagged ones, so it
   costs O(memory size / granule) tag reads plus O(tagged lines)
   decodes; the data of untagged lines is never read. *)
let revoke (m : Machine.t) ~base ~length =
  let scanned = ref 0 and revoked = ref 0 and regs = ref 0 in
  iter_memory_caps m (fun addr c ->
      incr scanned;
      if intersects c ~base ~length then begin
        Mem.Tags.set m.Machine.tags addr false;
        incr revoked
      end);
  for i = 0 to 31 do
    let c = Machine.cap m i in
    if intersects c ~base ~length then begin
      Machine.set_cap m i (Capability.clear_tag c);
      incr regs
    end
  done;
  if intersects m.Machine.pcc ~base ~length then begin
    m.Machine.pcc <- Capability.clear_tag m.Machine.pcc;
    incr regs
  end;
  {
    memory_capabilities_scanned = !scanned;
    memory_capabilities_revoked = !revoked;
    register_capabilities_revoked = !regs;
  }

(* [live_capability_roots machine] is the tracing pass of the non-reuse
   allocator: every segment currently reachable from a tagged capability
   anywhere in the system — memory, the register file and PCC, the same
   places [revoke] sweeps — as (base, length) pairs.  Address space
   outside every returned segment is provably unreferenced and
   reusable. *)
let live_capability_roots (m : Machine.t) =
  let roots = ref [] in
  let add c = if Capability.tag c then roots := (Capability.base c, Capability.length c) :: !roots in
  iter_memory_caps m (fun _ c -> add c);
  for i = 0 to 31 do
    add (Machine.cap m i)
  done;
  add m.Machine.pcc;
  !roots
