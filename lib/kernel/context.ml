(* Per-thread context switching.

   Section 4.3: "The kernel saves and restores per-thread capability-
   register state on context switches."  A context snapshot captures the
   general-purpose file, the full capability file, PCC, and PC; restoring
   one is exactly what the paper's modified FreeBSD does on every switch.
   The capability file dominates the cost: 32 x 32 bytes + PCC, which is
   why the paper notes a smaller register set "would reduce context-switch
   overhead". *)

open Beri

type t = {
  gprs : Regs.t;
  caps : Cap.Capability.t array;
  pcc : Cap.Capability.t;
  pc : int64;
}

let save (m : Machine.t) =
  {
    gprs = Regs.copy m.Machine.regs;
    caps = Array.copy m.Machine.caps;
    pcc = m.Machine.pcc;
    pc = Machine.pc m;
  }

let restore (m : Machine.t) t =
  Regs.load m.Machine.regs t.gprs;
  Array.blit t.caps 0 m.Machine.caps 0 32;
  m.Machine.pcc <- t.pcc;
  Machine.set_pc m t.pc

(* Bytes moved per switch — the metric the paper's "context-switch
   overhead" remark refers to: 32 GPRs x 8 B + (32 caps + PCC) x 32 B. *)
let switch_bytes = (32 * 8) + (33 * Cap.Capability.size_bytes)
