(* Security-invariant monitor: after-step (or post-run) oracles over the
   architectural state, reporting violations as structured diagnostics
   rather than exceptions.

   The oracles are the executable-model analogue of the machine-checked
   invariants in the CHERIoT-Ibex and CHERI-C verification work:

     - *capability well-formedness*: every live capability (register file,
       PCC, and every tagged memory line) must decode to a value the
       machine could legitimately have derived — bounds that do not wrap
       the address space, a 128-bit-representable shape on the compressed
       machine, and no dangling object type on an unsealed capability;

     - *tag/data integrity*: a tagged line must hold a well-formed
       capability image (a forged tag over plain data is exactly what this
       oracle catches);

     - *reachable-capability monotonicity*: every capability reachable
       from the running domain must convey a subset of the rights of the
       domain's root delegation ([rights_subset]), the Section 4.2
       transitive-closure property. *)

type violation = {
  oracle : string; (* "well-formed" | "tag-integrity" | "monotonicity" *)
  subject : string; (* which register / memory line *)
  detail : string;
}

let pp_violation ppf v = Fmt.pf ppf "%s: %s — %s" v.oracle v.subject v.detail

(* [well_formed ~cap_width c] is [None] when [c] could be a legitimately
   derived capability, or [Some reason]. *)
let well_formed ~cap_width c =
  if not (Cap.Capability.tag c) then None
  else if Cap.U64.add_overflows (Cap.Capability.base c) (Cap.Capability.length c) then
    Some
      (Fmt.str "bounds wrap the address space (base=%a length=%a)" Cap.U64.pp
         (Cap.Capability.base c) Cap.U64.pp (Cap.Capability.length c))
  else if (not (Cap.Capability.is_sealed c)) && Cap.Capability.otype c <> 0 then
    Some (Fmt.str "unsealed capability carries otype 0x%x" (Cap.Capability.otype c))
  else
    match cap_width with
    | Machine.W128 when not (Cap.Cap128.representable c) ->
        Some "not representable in the 128-bit compressed format"
    | _ -> None

let check_one ~cap_width ~root ~subject c acc =
  let acc =
    match well_formed ~cap_width c with
    | Some detail -> { oracle = "well-formed"; subject; detail } :: acc
    | None -> acc
  in
  match root with
  | Some root when Cap.Capability.tag c && not (Cap.Capability.rights_subset c root) ->
      {
        oracle = "monotonicity";
        subject;
        detail = Fmt.str "%a exceeds the domain root %a" Cap.Capability.pp c Cap.Capability.pp root;
      }
      :: acc
  | _ -> acc

(* Scan the capability register file and PCC.  The fuzzer runs this on
   every retired instruction, so the clean path renders no subject
   strings: the register's name is only materialised when one of the
   oracles actually fires. *)
let reg_subject i = if i < 0 then "pcc" else Printf.sprintf "register c%d" i

let check_regs ?root (m : Machine.t) =
  let cap_width = m.Machine.config.Machine.cap_width in
  let acc = ref [] in
  let scan i c =
    (match well_formed ~cap_width c with
    | Some detail -> acc := { oracle = "well-formed"; subject = reg_subject i; detail } :: !acc
    | None -> ());
    match root with
    | Some root when Cap.Capability.tag c && not (Cap.Capability.rights_subset c root) ->
        acc :=
          {
            oracle = "monotonicity";
            subject = reg_subject i;
            detail =
              Fmt.str "%a exceeds the domain root %a" Cap.Capability.pp c Cap.Capability.pp root;
          }
          :: !acc
    | _ -> ()
  in
  for i = 0 to 31 do
    scan i (Machine.cap m i)
  done;
  scan (-1) m.Machine.pcc;
  List.rev !acc

(* Scan every tagged line in [base, base+len): decode it exactly as a CLC
   would ([Machine.read_cap]) and apply the oracles.  Tag/data integrity
   means a tagged line *is* a well-formed, monotonic capability. *)
let check_memory ?root (m : Machine.t) ~base ~len =
  let cap_width = m.Machine.config.Machine.cap_width in
  let tags = m.Machine.tags in
  let g = Mem.Tags.granularity tags in
  (* Cover [base, base+len) in full: the first line rounds down and the
     last rounds up, so an unaligned [base] does not shift the window off
     its tail and a [len] that is not a granularity multiple still scans
     the partial last line. *)
  let first = Int64.to_int base land -g in
  let stop = if Int64.compare len 0L <= 0 then first else Int64.to_int (Int64.add base len) in
  let acc = ref [] in
  let a = ref first in
  while !a < stop do
    let addr = Int64.of_int !a in
    if Mem.Tags.get tags addr then begin
      let c = Machine.read_cap m addr ~tag:true in
      let subject = Printf.sprintf "line 0x%Lx" addr in
      let before = !acc in
      acc := check_one ~cap_width ~root ~subject c before;
      (* A tagged line that failed either oracle is also a tag-integrity
         violation: the tag asserts "this is a valid capability". *)
      if !acc != before then
        acc := { oracle = "tag-integrity"; subject; detail = "tagged line is not a valid capability" } :: !acc
    end;
    a := !a + g
  done;
  List.rev !acc

(* Full sweep: register file plus the given memory window (typically the
   heap and stack — scanning all of physical memory would be exact but a
   campaign-scale cost). *)
let check ?root (m : Machine.t) ~base ~len = check_regs ?root m @ check_memory ?root m ~base ~len
