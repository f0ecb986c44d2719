(** Address translation: a page table plus a TLB-reach model.

    The model uses identity virtual-to-physical mapping; what matters
    architecturally is (a) per-page permissions, including the CHERI page
    table extension bits authorising capability loads and stores (§6.1),
    and (b) TLB reach — Figure 5's steps come from a TLB covering 1 MB
    (256 x 4 KB entries), reproduced by counting hits and misses over a
    fully-associative LRU entry set.

    State is flat and page-indexed: the page table is one byte per page
    naming one of 32 prebuilt {!prot} records, and residency is one slot
    index per page (-1 = absent); {!map} grows both to the highest mapped
    page.  {!protection} and a {!touch} hit are one array read each, and
    neither allocates.  Replacement is true LRU with unique ticks. *)

val page_bits : int

type prot = {
  valid : bool;
  writable : bool;
  executable : bool;
  cap_load : bool;  (** CHERI PTE extension: authorise capability loads *)
  cap_store : bool;  (** ... and capability stores *)
}

val prot_none : prot

(** Read/write/execute plus both capability bits. *)
val prot_rwx : prot

type t = {
  entries : int;
  mutable perms : Bytes.t;  (** VPN -> protection code *)
  mutable slot_of : int array;  (** VPN -> resident slot, -1 = absent *)
  slot_vpn : int array;
  slot_tick : int array;
  mutable used : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

val create : ?entries:int -> unit -> t

(** Map (or remap) the pages covering [vaddr, vaddr+len). *)
val map : t -> vaddr:int64 -> len:int -> prot -> unit

val unmap : t -> vaddr:int64 -> len:int -> unit

(** Protections of the page containing the address ({!prot_none} when
    unmapped). *)
val protection : t -> int64 -> prot

(** Touch the TLB for a translation; [false] = miss (LRU refill
    modelled).  Only pages inside the map are translated (the machine
    checks {!protection} first).
    @raise Invalid_argument for a page beyond the highest mapped one. *)
val touch : t -> int64 -> bool

(** {1 Snapshot / restore} — page table, residency, LRU ticks and stats
    restored exactly. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
