(* Differential lockstep execution: the same seeded program runs on a
   256-bit and a 128-bit machine, stepping both one instruction at a
   time and diffing everything architecturally observable at each
   retirement — PC, the scalar register file (including HI/LO), the
   capability register file and PCC, the store stream, and on
   termination the exit path (exception identity and halt code).

   Exactly one divergence class is *permitted*, and it is classified
   rather than ignored: the compressed machine refusing to store a
   capability whose bounds its 40-bit fields cannot represent
   ([Cp2 Non_exact_bounds] out of CSC, per the paper's Section 3.7
   fat-pointer compression discussion).  The wide generator arms c8/r21
   precisely to provoke these.  Anything else — a value difference, a
   tag difference, one machine trapping where the other retires, store
   streams out of agreement — is a [Mismatch]: a genuine observational
   bug in one of the two implementations.

   Capability registers compare by *observation*, not representation: a
   tag disagreement is a mismatch; two untagged registers are equal
   (their field bits may be width-dependent CLC residue, which no
   capability-respecting observation can distinguish); two tagged
   registers compare all fields.  The store stream uses the machine's
   store hook: scalar stores compare (addr, width, value) exactly,
   capability stores compare (addr, [Machine.cap_digest]) — the digest
   folds base/length/perms/otype/seal for tagged stores and collapses
   untagged stores to a constant, mirroring the register rule.

   The invariant monitor runs on the 256-bit side only: in wide mode the
   clean pool legitimately holds W128-unrepresentable capabilities, which
   the 128-bit machine's well-formedness oracle would (correctly, per its
   own model) reject. *)

type divergence = {
  step : int; (* joint retirement index at which the streams split *)
  what : string; (* description of the first difference *)
}

type outcome =
  | Joint of Exec.outcome * int (* streams agreed at every retirement; shared outcome + length *)
  | Representability of divergence (* the one permitted class, classified *)
  | Mismatch of divergence (* observational disagreement: a bug *)

let outcome_key = function
  | Joint (o, _) -> Exec.outcome_key o
  | Representability _ -> "rep-divergence"
  | Mismatch _ -> "mismatch"

let pp_outcome ppf = function
  | Joint (o, n) -> Fmt.pf ppf "agree after %d steps: %a" n Exec.pp_outcome o
  | Representability d -> Fmt.pf ppf "representability divergence at step %d: %s" d.step d.what
  | Mismatch d -> Fmt.pf ppf "MISMATCH at step %d: %s" d.step d.what

(* --- store-stream recording --------------------------------------------- *)

(* One record per side, overwritten at every joint step: the generated
   subset issues at most one store per instruction. [count] guards that
   assumption rather than trusting it. *)
type events = {
  mutable count : int;
  mutable addr : int64;
  mutable kind : int; (* scalar width in bytes; 0 = capability store *)
  mutable payload : int64; (* scalar value, or the capability digest *)
}

let fresh_events () = { count = 0; addr = 0L; kind = 0; payload = 0L }

let clear ev = ev.count <- 0

let record ev addr kind payload =
  ev.count <- ev.count + 1;
  ev.addr <- addr;
  ev.kind <- kind;
  ev.payload <- payload

(* --- state comparison ---------------------------------------------------- *)

let cap_obs_equal a b =
  if Cap.Capability.tag a <> Cap.Capability.tag b then false
  else if not (Cap.Capability.tag a) then true
  else Cap.Capability.equal a b

(* First observable difference between the two machines after a joint
   step, or [None].  Descriptions are only materialised on the failure
   path. *)
let compare_states (m256 : Machine.t) (m128 : Machine.t) ev256 ev128 =
  if not (Machine.same_pc m256 m128) then
    Some (Printf.sprintf "pc: 0x%Lx vs 0x%Lx" (Machine.pc m256) (Machine.pc m128))
  else begin
    (* scalar registers: one image compare *)
    let diff = ref (Beri.Regs.diff m256.Machine.regs m128.Machine.regs) in
    (* capability registers + pcc *)
    let j = ref 0 in
    while !diff = None && !j < 32 do
      let a = Machine.cap m256 !j and b = Machine.cap m128 !j in
      if not (cap_obs_equal a b) then
        diff :=
          Some
            (Printf.sprintf "c%d: %s vs %s" !j
               (Fmt.str "%a" Cap.Capability.pp a)
               (Fmt.str "%a" Cap.Capability.pp b));
      incr j
    done;
    if !diff = None && not (cap_obs_equal m256.Machine.pcc m128.Machine.pcc) then
      diff := Some "pcc differs";
    (* store stream *)
    if !diff = None then begin
      if ev256.count <> ev128.count then
        diff := Some (Printf.sprintf "store count: %d vs %d" ev256.count ev128.count)
      else if
        ev256.count > 0
        && (ev256.addr <> ev128.addr || ev256.kind <> ev128.kind || ev256.payload <> ev128.payload)
      then
        diff :=
          Some
            (Printf.sprintf "store: addr 0x%Lx kind %d payload 0x%Lx vs addr 0x%Lx kind %d payload 0x%Lx"
               ev256.addr ev256.kind ev256.payload ev128.addr ev128.kind ev128.payload)
    end;
    !diff
  end

(* --- the lockstep loop --------------------------------------------------- *)

type side = Running | Ended of int (* kernel halt code *)

let step_once m =
  match Machine.step m with
  | () -> Running
  | exception Machine.Halted code -> Ended code
  | exception Machine.Unhandled ctx -> Ended (1000 + Beri.Cp0.exc_code ctx.Machine.exc)

let last_exc (m : Machine.t) = m.Machine.cp0.Beri.Cp0.last_exc

(* The permitted divergence: the 128-bit side ended this step on a
   compressed-bounds refusal while the 256-bit side did not end the same
   way (same-cause joint traps compare equal and never reach here). *)
let is_representability s128 m128 =
  match s128 with
  | Ended _ -> (
      match last_exc m128 with
      | Some (Beri.Cp0.Cp2 c) -> Cap.Cause.equal c Cap.Cause.Non_exact_bounds
      | _ -> false)
  | Running -> false

let classify step what s128 m128 =
  if is_representability s128 m128 then Representability { step; what }
  else Mismatch { step; what }

(* Run [program] for [seed] on the machine pair.  Both machines are
   deterministically reset; they may be reused across calls. *)
let run (cfg : Gen.cfg) ~seed ~program ~(m256 : Machine.t) ~(m128 : Machine.t) =
  Gen.reset m256 cfg seed;
  Gen.reset m128 cfg seed;
  Gen.load m256 program;
  Gen.load m128 program;
  let ev256 = fresh_events () and ev128 = fresh_events () in
  Machine.set_store_hook m256 (Some (fun addr kind payload -> record ev256 addr kind payload));
  Machine.set_store_hook m128 (Some (fun addr kind payload -> record ev128 addr kind payload));
  let mon = Exec.attach_monitor m256 cfg in
  let budget = Gen.budget cfg in
  let detach () =
    Machine.set_store_hook m256 None;
    Machine.set_store_hook m128 None;
    mon.Exec.finish ()
  in
  let rec go step =
    if step >= budget then begin
      detach ();
      Joint (Exec.Hang, step)
    end
    else begin
      clear ev256;
      clear ev128;
      let s256 = step_once m256 in
      let s128 = step_once m128 in
      match (s256, s128) with
      | Running, Running -> (
          if !(mon.Exec.violations) <> [] then begin
            let vs = !(mon.Exec.violations) in
            detach ();
            Joint (Exec.Monitor vs, step)
          end
          else
            match compare_states m256 m128 ev256 ev128 with
            | None -> go (step + 1)
            | Some what ->
                detach ();
                classify step what s128 m128)
      | Ended a, Ended b ->
          detach ();
          let exc_agree =
            match (last_exc m256, last_exc m128) with
            | Some (Beri.Cp0.Cp2 ca), Some (Beri.Cp0.Cp2 cb) -> Cap.Cause.equal ca cb
            | ea, eb -> ea = eb
          in
          if a = b && exc_agree then begin
            match compare_states m256 m128 ev256 ev128 with
            | None ->
                if !(mon.Exec.violations) <> [] then
                  Joint (Exec.Monitor !(mon.Exec.violations), step)
                else Joint (Exec.classify_exit m256, step)
            | Some what -> classify step ("final state: " ^ what) s128 m128
          end
          else
            classify step
              (Printf.sprintf "exit: code %d (%s) vs code %d (%s)" a
                 (match last_exc m256 with Some e -> Beri.Cp0.exc_to_string e | None -> "none")
                 b
                 (match last_exc m128 with Some e -> Beri.Cp0.exc_to_string e | None -> "none"))
              s128 m128
      | Ended a, Running ->
          detach ();
          classify step
            (Printf.sprintf "w256 ended (code %d, %s) while w128 retired" a
               (match last_exc m256 with Some e -> Beri.Cp0.exc_to_string e | None -> "none"))
            s128 m128
      | Running, Ended b ->
          detach ();
          classify step
            (Printf.sprintf "w128 ended (code %d, %s) while w256 retired" b
               (match last_exc m128 with Some e -> Beri.Cp0.exc_to_string e | None -> "none"))
            s128 m128
    end
  in
  go 0
