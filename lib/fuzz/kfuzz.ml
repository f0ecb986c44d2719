(* Kernel protected-call surface fuzzing (`cheri_fuzz --mode kernel`).

   The instruction-level campaigns ([Gen]/[Exec]) fuzz the architecture;
   this module fuzzes the *kernel model* itself: the trap-emulated
   CCall/CReturn handlers and their trusted stack (Section 11).  Each
   seed generates a scenario — a sequence of protected-call attempts
   with deliberately damaged capability pairs (untagged, unsealed,
   mismatched object types) interleaved with returns, including returns
   on an empty trusted stack — and drives the kernel handlers directly
   with host-minted capabilities, no simulated instructions in between.

   The oracle is a pure model of the protected-call contract, advanced
   in lockstep:

     - refusal order and architectural cause: tags before seals before
       object types, with the precise [Cap.Cause] in capcause;
     - trusted-stack depth after every operation;
     - the ccall/creturn/ctx_save/ctx_restore counter file;
     - domain entry/exit: PCC and C0 must land on the invoked pair's
       segments on entry and be restored exactly on return.

   Any disagreement is a campaign failure (the kernel handler and the
   written contract diverge); refusals themselves are expected outcomes
   and are tallied, mirroring the instruction campaigns' trap classes. *)

open Beri
module Prng = Fault.Prng

(* One protected-call attempt: how to mint the C1/C2 pair. *)
type pair_spec = {
  code_otype : int;
  data_otype : int; (* <> code_otype models a confused-deputy pair *)
  code_tag : bool;
  data_tag : bool;
  code_sealed : bool;
  data_sealed : bool;
  code_base : int64;
  data_base : int64;
}

type op = Call of pair_spec | Return

let pp_op ppf = function
  | Return -> Fmt.string ppf "creturn"
  | Call s ->
      Fmt.pf ppf "ccall code(base=0x%Lx ot=%d%s%s) data(base=0x%Lx ot=%d%s%s)" s.code_base
        s.code_otype
        (if s.code_tag then "" else " untagged")
        (if s.code_sealed then "" else " unsealed")
        s.data_base s.data_otype
        (if s.data_tag then "" else " untagged")
        (if s.data_sealed then "" else " unsealed")

(* --- generation ----------------------------------------------------------- *)

type cfg = { programs : int; ops : int; base_seed : int64 }

let default = { programs = 1000; ops = 24; base_seed = 1L }

let segment_length = 0x100L

let gen_pair rng =
  let region () = Int64.of_int (0x2000 * (1 + Prng.int rng 1024)) in
  let ot = 1 + Prng.int rng 48 in
  let spec =
    {
      code_otype = ot;
      data_otype = ot;
      code_tag = true;
      data_tag = true;
      code_sealed = true;
      data_sealed = true;
      code_base = region ();
      data_base = region ();
    }
  in
  (* Most pairs are valid; each damage class hits one side at random so
     the check-order oracle sees every combination over a campaign. *)
  match Prng.int rng 6 with
  | 0 -> if Prng.bool rng then { spec with code_tag = false } else { spec with data_tag = false }
  | 1 ->
      if Prng.bool rng then { spec with code_sealed = false }
      else { spec with data_sealed = false }
  | 2 -> { spec with data_otype = (if ot = 1 then 2 else ot - 1) }
  | _ -> spec

let generate cfg seed =
  let rng = Prng.create seed in
  let depth = ref 0 in
  List.init cfg.ops (fun _ ->
      (* Returns get likelier as the stack deepens; 1 in 8 ops attempts a
         return even when the stack is empty (the Return_trap path). *)
      let want_return =
        if Prng.int rng 8 = 0 then true
        else !depth > 0 && Prng.int rng (2 + !depth) <> 0 && Prng.bool rng
      in
      if want_return then begin
        if !depth > 0 then decr depth;
        Return
      end
      else
        let spec = gen_pair rng in
        if spec.code_tag && spec.data_tag && spec.code_sealed && spec.data_sealed
           && spec.code_otype = spec.data_otype
        then incr depth;
        Call spec)

(* --- the pure model ------------------------------------------------------- *)

type expectation =
  | Enter (* push a frame; PCC/C0 move to the pair's segments *)
  | Refuse of Cap.Cause.t (* Halt 96 with this capcause *)
  | Pop (* restore the top frame *)
  | Empty_return (* Halt 97, capcause Return_trap *)

let expect_call s =
  if not (s.code_tag && s.data_tag) then Refuse Cap.Cause.Tag_violation
  else if not (s.code_sealed && s.data_sealed) then Refuse Cap.Cause.Seal_violation
  else if s.code_otype <> s.data_otype then Refuse Cap.Cause.Type_violation
  else Enter

let expectation_key = function
  | Enter -> "entered"
  | Refuse Cap.Cause.Tag_violation -> "refused-tag"
  | Refuse Cap.Cause.Seal_violation -> "refused-seal"
  | Refuse Cap.Cause.Type_violation -> "refused-type"
  | Refuse _ -> "refused-other"
  | Pop -> "returned"
  | Empty_return -> "empty-return"

(* --- scenario execution --------------------------------------------------- *)

let seal_authority =
  Cap.Capability.make ~perms:Cap.Perms.all ~base:0L ~length:Cap.U64.max_value

let mint ~base ~otype ~tagged ~sealed =
  let c = Cap.Capability.make ~perms:Cap.Perms.all ~base ~length:segment_length in
  let c =
    if sealed then
      match Cap.Capability.seal c ~authority:seal_authority ~otype with
      | Ok c -> c
      | Error e -> Fmt.invalid_arg "Kfuzz.mint: %s" (Cap.Cause.to_string e)
    else c
  in
  if tagged then c else Cap.Capability.clear_tag c

(* A model frame mirrors what the kernel must restore. *)
type frame = { f_pcc : int64; f_c0 : int64; f_return : int64 }

type outcome = {
  tallies : (string * int) list; (* expectation_key counts, scenario-local *)
  mismatch : string option; (* first divergence, if any *)
}

let run_scenario machine cfg seed =
  let m = machine in
  let k = Os.Kernel.attach m in
  (* A recognizable caller domain: the model tracks its bases. *)
  let caller_pcc = 0x1_0000L and caller_c0 = 0x2_0000L in
  m.Machine.pcc <-
    Cap.Capability.make ~perms:Cap.Perms.all ~base:caller_pcc ~length:0x1_0000L;
  Machine.set_cap m 0
    (Cap.Capability.make ~perms:Cap.Perms.all ~base:caller_c0 ~length:0x1_0000L);
  m.Machine.cp0.Cp0.capcause <- Cap.Cause.None_;
  let ops = generate cfg seed in
  let stack = ref [] in
  let calls = ref 0 and returns = ref 0 and saves = ref 0 and restores = ref 0 in
  let tallies = Hashtbl.create 8 in
  let tally key = Hashtbl.replace tallies key (1 + Option.value ~default:0 (Hashtbl.find_opt tallies key)) in
  let mismatch = ref None in
  let fail idx fmt =
    Fmt.kstr
      (fun s ->
        if !mismatch = None then
          mismatch := Some (Fmt.str "seed %Ld op %d: %s" seed idx s))
      fmt
  in
  let check_counters idx =
    if k.Os.Kernel.ccalls <> !calls then
      fail idx "ccalls %d, model %d" k.Os.Kernel.ccalls !calls;
    if k.Os.Kernel.creturns <> !returns then
      fail idx "creturns %d, model %d" k.Os.Kernel.creturns !returns;
    if k.Os.Kernel.ctx_saves <> !saves then
      fail idx "ctx_saves %d, model %d" k.Os.Kernel.ctx_saves !saves;
    if k.Os.Kernel.ctx_restores <> !restores then
      fail idx "ctx_restores %d, model %d" k.Os.Kernel.ctx_restores !restores;
    if Os.Kernel.trusted_stack_depth k <> List.length !stack then
      fail idx "trusted-stack depth %d, model %d"
        (Os.Kernel.trusted_stack_depth k)
        (List.length !stack)
  in
  List.iteri
    (fun idx op ->
      if !mismatch = None then
        match op with
        | Call spec ->
            let code =
              mint ~base:spec.code_base ~otype:spec.code_otype ~tagged:spec.code_tag
                ~sealed:spec.code_sealed
            in
            let data =
              mint ~base:spec.data_base ~otype:spec.data_otype ~tagged:spec.data_tag
                ~sealed:spec.data_sealed
            in
            Machine.set_cap m 1 code;
            Machine.set_cap m 2 data;
            let epc = Int64.of_int (0x100 + (8 * idx)) in
            m.Machine.cp0.Cp0.epc <- epc;
            let expected = expect_call spec in
            tally (expectation_key expected);
            incr calls;
            (* The caller's domain, as the kernel must restore it later. *)
            let caller_frame =
              {
                f_pcc = Cap.Capability.base m.Machine.pcc;
                f_c0 = Cap.Capability.base (Machine.cap m 0);
                f_return = Int64.add epc 4L;
              }
            in
            let action = Os.Kernel.handle_ccall k in
            (match (expected, action) with
            | Enter, Machine.Resume_at pc ->
                incr saves;
                stack := caller_frame :: !stack;
                (* ... which must now be the *callee's* domain. *)
                if pc <> spec.code_base then
                  fail idx "entered at 0x%Lx, expected code base 0x%Lx" pc spec.code_base;
                if Cap.Capability.base m.Machine.pcc <> spec.code_base then
                  fail idx "PCC base 0x%Lx, expected 0x%Lx"
                    (Cap.Capability.base m.Machine.pcc)
                    spec.code_base;
                if Cap.Capability.base (Machine.cap m 0) <> spec.data_base then
                  fail idx "C0 base 0x%Lx, expected 0x%Lx"
                    (Cap.Capability.base (Machine.cap m 0))
                    spec.data_base
            | Enter, Machine.Halt c -> fail idx "valid pair refused (halt %d)" c
            | Refuse cause, Machine.Halt 96 ->
                if m.Machine.cp0.Cp0.capcause <> cause then
                  fail idx "capcause %s, expected %s"
                    (Cap.Cause.to_string m.Machine.cp0.Cp0.capcause)
                    (Cap.Cause.to_string cause)
            | Refuse _, Machine.Resume_at pc -> fail idx "damaged pair entered at 0x%Lx" pc
            | _, action ->
                fail idx "unexpected kernel action %s"
                  (match action with
                  | Machine.Resume_at pc -> Printf.sprintf "resume@0x%Lx" pc
                  | Machine.Halt c -> Printf.sprintf "halt %d" c
                  | _ -> "fatal"));
            check_counters idx
        | Return ->
            let expected = match !stack with [] -> Empty_return | _ :: _ -> Pop in
            tally (expectation_key expected);
            incr returns;
            let action = Os.Kernel.handle_creturn k in
            (match (expected, action) with
            | Pop, Machine.Resume_at pc ->
                incr restores;
                (match !stack with
                | [] -> assert false
                | frame :: rest ->
                    stack := rest;
                    if pc <> frame.f_return then
                      fail idx "returned to 0x%Lx, expected 0x%Lx" pc frame.f_return;
                    if Cap.Capability.base m.Machine.pcc <> frame.f_pcc then
                      fail idx "PCC base 0x%Lx not restored to 0x%Lx"
                        (Cap.Capability.base m.Machine.pcc)
                        frame.f_pcc;
                    if Cap.Capability.base (Machine.cap m 0) <> frame.f_c0 then
                      fail idx "C0 base 0x%Lx not restored to 0x%Lx"
                        (Cap.Capability.base (Machine.cap m 0))
                        frame.f_c0)
            | Pop, Machine.Halt c -> fail idx "return with frames halted %d" c
            | Empty_return, Machine.Halt 97 ->
                if m.Machine.cp0.Cp0.capcause <> Cap.Cause.Return_trap then
                  fail idx "empty-return capcause %s, expected %s"
                    (Cap.Cause.to_string m.Machine.cp0.Cp0.capcause)
                    (Cap.Cause.to_string Cap.Cause.Return_trap)
            | Empty_return, Machine.Resume_at pc ->
                fail idx "empty-stack return resumed at 0x%Lx" pc
            | _, Machine.Halt c -> fail idx "unexpected halt %d" c
            | _, _ -> fail idx "unexpected kernel action");
            check_counters idx)
    ops;
  {
    tallies = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tallies [];
    mismatch = !mismatch;
  }

(* --- the campaign --------------------------------------------------------- *)

let outcome_keys =
  [| "entered"; "refused-tag"; "refused-seal"; "refused-type"; "returned"; "empty-return"; "mismatch" |]

let k_mismatch = Array.length outcome_keys - 1

type result = {
  cfg : cfg;
  programs_done : int;
  tallies : int64 array; (* indexed per [outcome_keys] *)
  wall_s : float; (* host time, accumulated across resumes; 0.0 when wall is off *)
  failures : (int64 * string) list; (* capped example mismatches, seed order *)
}

let key_index key =
  let rec go i =
    if i >= Array.length outcome_keys then invalid_arg ("Kfuzz.key_index: " ^ key)
    else if String.equal outcome_keys.(i) key then i
    else go (i + 1)
  in
  go 0

let fingerprint cfg =
  Printf.sprintf "fuzz:kernel:programs=%d:ops=%d:base=%Ld" cfg.programs cfg.ops cfg.base_seed

(* Run scenarios [lo, lo+len) on one fresh machine.  Each scenario
   attaches a fresh kernel and resets every register the model reads, so
   the machine's reuse is invisible in the results. *)
let run_chunk cfg (lo, len) =
  let m = Machine.create () in
  let counts = Array.make (Array.length outcome_keys) 0L in
  let failures = ref [] in
  let bump idx n = counts.(idx) <- Int64.add counts.(idx) (Int64.of_int n) in
  for i = 0 to len - 1 do
    let seed = Int64.add cfg.base_seed (Int64.of_int (lo + i)) in
    let o = run_scenario m cfg seed in
    List.iter (fun (key, n) -> bump (key_index key) n) o.tallies;
    Option.iter
      (fun reason ->
        bump k_mismatch 1;
        failures := (seed, reason) :: !failures)
      o.mismatch
  done;
  {
    Fault.Checkpoint.counts;
    retired = 0L;
    histograms = [];
    failures = List.rev !failures;
    records = [];
  }

(* [checkpoint], [resume], [stop_after], [jobs], [wall]: as for
   [Fault.Checkpoint.run].  Tallies count operations, not scenarios;
   the driver's cursor counts scenarios. *)
let run ?jobs ?checkpoint ?resume ?stop_after ?wall cfg =
  let { Fault.Checkpoint.upto; merged; wall_s } =
    Fault.Checkpoint.run ?jobs ?path:checkpoint ?resume ?stop_after ?wall ~kind:"fuzz"
      ~fingerprint:(fingerprint cfg) ~keys:outcome_keys ~hists:[] ~seeds:cfg.programs
      (run_chunk cfg)
  in
  {
    cfg;
    programs_done = upto;
    tallies = merged.Fault.Checkpoint.counts;
    wall_s;
    failures = merged.Fault.Checkpoint.failures;
  }

let clean r = Int64.equal r.tallies.(k_mismatch) 0L

(* Deterministic replay of one seed: print the scenario and its verdict. *)
let replay cfg ~seed =
  let m = Machine.create () in
  let ops = generate cfg seed in
  let o = run_scenario m cfg seed in
  let desc =
    Fmt.str "@[<v>%a@,%s@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf op -> Fmt.pf ppf "  %a" pp_op op))
      ops
      (match o.mismatch with Some r -> "MISMATCH: " ^ r | None -> "clean")
  in
  (desc, o.mismatch <> None)

let pp ppf r =
  Fmt.pf ppf "kernel fuzz campaign: programs=%d ops=%d base-seed=%Ld@." r.programs_done r.cfg.ops
    r.cfg.base_seed;
  Campaign.pp_tallies outcome_keys ppf r.tallies;
  if r.wall_s > 0.0 then Fmt.pf ppf "  %-16s %.2f@." "wall_s" r.wall_s;
  Campaign.pp_failures "mismatching seeds" ppf r.failures

(* Same export shape as the instruction campaigns, with no retired
   instructions: tallies as spans, scenario count in param. *)
let export_entry r =
  Campaign.export ~mode:"kernel" ~param:r.programs_done ~instret:0L ~wall_s:r.wall_s outcome_keys
    r.tallies
