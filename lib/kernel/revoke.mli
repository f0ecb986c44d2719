(** Capability revocation by tag sweep — the paper's §11 temporal-safety
    direction ("Tags allow us to identify all references").

    Because every capability in the system is identifiable (tagged lines
    in memory, the register file, PCC), revoking a region is a precise
    sweep: clear the tag of every capability whose segment intersects it.
    Dangling capabilities then fault on next use. *)

type stats = {
  memory_capabilities_scanned : int;
  memory_capabilities_revoked : int;
  register_capabilities_revoked : int;
}

(** [revoke machine ~base ~length] clears every capability granting access
    to any byte of [base, base+length) — including ambient
    whole-address-space registers, which also reach the region.  It reads
    the tag of every capability-sized line of physical memory and decodes
    the tagged ones in the machine's own format. *)
val revoke : Machine.t -> base:int64 -> length:int64 -> stats

(** The tracing pass of the §11 non-reuse allocator: every (base, length)
    segment currently reachable from a tagged capability anywhere in the
    system (memory, the register file and PCC).  Address space outside
    all returned segments is provably unreferenced. *)
val live_capability_roots : Machine.t -> (int64 * int64) list
