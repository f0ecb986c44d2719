(* Checkpointed fuzzing campaigns: N seeded programs through the chosen
   harness, run by the shared campaign driver ([Fault.Checkpoint.run]).

   Determinism contract (what the @par-determ and resume tests pin):
   a campaign's final result is a pure function of its [cfg].  Every
   program's outcome is a pure function of its seed ([Gen]'s full reset
   makes machine reuse invisible); the driver does the rest — a fixed
   chunk grid at absolute seed indices whose shards merge in seed order,
   so [--jobs N] changes wall-clock only, and checkpoints that resume to
   a final export byte-identical to an uninterrupted one.

   The one thing a checkpoint does not carry is the capped example-seed
   list for failures found before the interruption: those live in the
   corpus directory (if one was given), not in the aggregate state. *)

type mode =
  | Cheri (* single 256-bit machine, oracles on every retirement *)
  | Cheri128 (* single 128-bit machine (narrow bounds: every cap representable) *)
  | Lockstep (* W256 vs W128 differential, the tentpole mode *)
  | Engines (* W256 superblock vs W256 plain engine differential *)

let mode_key = function
  | Cheri -> "cheri"
  | Cheri128 -> "cheri128"
  | Lockstep -> "lockstep"
  | Engines -> "engines"

let mode_of_string = function
  | "cheri" -> Some Cheri
  | "cheri128" -> Some Cheri128
  | "lockstep" -> Some Lockstep
  | "engines" -> Some Engines
  | _ -> None

type cfg = {
  mode : mode;
  programs : int; (* seeds in the campaign *)
  insns : int; (* instructions per generated program *)
  base_seed : int64; (* seed of program i is base_seed + i *)
  wide : bool; (* arm W128-unrepresentable bounds (lockstep only; see [gen_cfg]) *)
}

let default = { mode = Lockstep; programs = 1000; insns = 24; base_seed = 1L; wide = true }

(* A single-width 128-bit run must stay narrow: its own well-formedness
   oracle (correctly) rejects unrepresentable register values, and there
   is no wide machine to diff against. *)
let gen_cfg cfg =
  { Gen.insns = cfg.insns; Gen.wide = (cfg.wide && cfg.mode <> Cheri128) }

(* Outcome tallies, indexed per [outcome_keys]. *)
let outcome_keys = [| "ok"; "trap-cap"; "trap-other"; "monitor"; "hang"; "rep-divergence"; "mismatch" |]

let k_ok = 0
let k_trap_cap = 1
let k_trap_other = 2
let k_monitor = 3
let k_hang = 4
let k_rep = 5
let k_mismatch = 6

type result = {
  cfg : cfg;
  programs_done : int;
  tallies : int64 array; (* indexed per [outcome_keys] *)
  instret : int64; (* joint retirements (lockstep counts the pair once) *)
  wall_s : float; (* host time, accumulated across resumes; 0.0 when wall is off *)
  insn_hist : Obs.Hist.t; (* retired instructions per program *)
  violation_hist : Obs.Hist.t; (* oracle violations per flagged program *)
  failures : (int64 * string) list; (* example failing seeds with reasons (capped) *)
}

let chunks_between = Fault.Checkpoint.chunks_between

let fingerprint cfg =
  Printf.sprintf "fuzz:%s:programs=%d:insns=%d:base=%Ld:wide=%b" (mode_key cfg.mode) cfg.programs
    cfg.insns cfg.base_seed cfg.wide

(* --- the per-mode harness ------------------------------------------------ *)

(* One program's outcome under the campaign discipline.  A campaign
   failure is a seed whose program must be shrunk and filed: monitor
   hits, hangs, and mismatches qualify; traps and representability
   divergences are expected behaviour. *)
type verdict = {
  key : int; (* index into [outcome_keys] *)
  retired : int; (* retirements counted toward [instret] *)
  violations : int; (* oracle violations; 0 unless [key = k_monitor] *)
  reason : string option; (* [Some why] iff the program is a campaign failure *)
  text : unit -> string; (* the whole outcome, formatted for replay *)
}

(* Build [cfg.mode]'s machines and return the function that runs one
   program on them: the one place that knows the modes, shared by the
   campaign, the shrinker's predicate, and replay.  Retirement counts
   keep each mode's convention: a lockstep divergence counts the steps
   up to it, an engine mismatch counts 0.

   [engine] overrides the interpreter engine of the single-width and
   lockstep machines.  It is deliberately *not* part of [cfg] (and so
   not part of the checkpoint fingerprint): the engines are required to
   be architecturally indistinguishable, so a campaign result is the
   same function of [cfg] under either — that equivalence is itself
   pinned by the [Engines] mode, which runs both and ignores the
   override. *)
let harness ?engine cfg =
  let gcfg = gen_cfg cfg in
  let single text (o, retired) =
    let key, violations, reason =
      match o with
      | Exec.Clean -> (k_ok, 0, None)
      | Exec.Cap_trap _ -> (k_trap_cap, 0, None)
      | Exec.Other_trap _ -> (k_trap_other, 0, None)
      | Exec.Hang -> (k_hang, 0, Some "instruction budget exhausted")
      | Exec.Monitor vs ->
          ( k_monitor,
            List.length vs,
            Some (Fmt.str "%a" (Fmt.list ~sep:Fmt.semi Fault.Monitor.pp_violation) vs) )
    in
    { key; retired; violations; reason; text }
  in
  let diverged key retired reason text = { key; retired; violations = 0; reason; text } in
  match cfg.mode with
  | Cheri | Cheri128 ->
      let m = Gen.create_machine ?engine (if cfg.mode = Cheri then Machine.W256 else Machine.W128) in
      fun ~seed program ->
        let o, n = Exec.run m gcfg ~seed ~program in
        single (fun () -> Fmt.str "%a (%d retired)" Exec.pp_outcome o n) (o, n)
  | Lockstep ->
      let m256 = Gen.create_machine ?engine Machine.W256 in
      let m128 = Gen.create_machine ?engine Machine.W128 in
      fun ~seed program ->
        let o = Lockstep.run gcfg ~seed ~program ~m256 ~m128 in
        let text () = Fmt.str "%a" Lockstep.pp_outcome o in
        (match o with
        | Lockstep.Joint (eo, n) -> single text (eo, n)
        | Lockstep.Representability d -> diverged k_rep d.Lockstep.step None text
        | Lockstep.Mismatch d -> diverged k_mismatch d.Lockstep.step (Some d.Lockstep.what) text)
  | Engines ->
      let m_sb, m_plain = Englock.create_pair () in
      fun ~seed program ->
        let o = Englock.run gcfg ~seed ~program ~m_sb ~m_plain in
        let text () = Fmt.str "%a" Englock.pp_outcome o in
        (match o with
        | Englock.Agree (eo, n) -> single text (eo, n)
        | Englock.Engine_mismatch { what } -> diverged k_mismatch 0 (Some what) text)

(* --- the campaign -------------------------------------------------------- *)

let new_insn_hist () = Obs.Hist.create ~name:"fuzz-insns-per-program" ()
let new_violation_hist () = Obs.Hist.create ~name:"fuzz-oracle-violations" ()

(* Run seeds [lo, lo+len) on fresh machines and aggregate locally. *)
let run_chunk ?engine cfg (lo, len) =
  let gcfg = gen_cfg cfg in
  let run = harness ?engine cfg in
  let counts = Array.make (Array.length outcome_keys) 0L in
  let retired = ref 0L and failures = ref [] in
  let ih = new_insn_hist () and vh = new_violation_hist () in
  for i = 0 to len - 1 do
    let seed = Int64.add cfg.base_seed (Int64.of_int (lo + i)) in
    let v = run ~seed (Gen.generate gcfg seed) in
    counts.(v.key) <- Int64.add counts.(v.key) 1L;
    retired := Int64.add !retired (Int64.of_int v.retired);
    Obs.Hist.observe_int ih v.retired;
    if v.violations > 0 then Obs.Hist.observe_int vh v.violations;
    Option.iter (fun r -> failures := (seed, r) :: !failures) v.reason
  done;
  {
    Fault.Checkpoint.counts;
    retired = !retired;
    histograms = [ ih; vh ];
    failures = List.rev !failures;
    records = [];
  }

(* [jobs], [checkpoint], [resume], [stop_after], [wall]: as for
   [Fault.Checkpoint.run]. *)
let run ?jobs ?checkpoint ?resume ?stop_after ?wall ?engine cfg =
  let insn_hist = new_insn_hist () and violation_hist = new_violation_hist () in
  let { Fault.Checkpoint.upto; merged; wall_s } =
    Fault.Checkpoint.run ?jobs ?path:checkpoint ?resume ?stop_after ?wall ~kind:"fuzz"
      ~fingerprint:(fingerprint cfg) ~keys:outcome_keys ~hists:[ insn_hist; violation_hist ]
      ~seeds:cfg.programs
      (run_chunk ?engine cfg)
  in
  {
    cfg;
    programs_done = upto;
    tallies = merged.Fault.Checkpoint.counts;
    instret = merged.Fault.Checkpoint.retired;
    wall_s;
    insn_hist;
    violation_hist;
    failures = merged.Fault.Checkpoint.failures;
  }

(* --- reporting ----------------------------------------------------------- *)

(* A campaign is clean when no oracle fired, nothing hung, and the
   machines never observably disagreed (representability divergences are
   classified, expected behaviour). *)
let clean r =
  Int64.equal r.tallies.(k_monitor) 0L
  && Int64.equal r.tallies.(k_hang) 0L
  && Int64.equal r.tallies.(k_mismatch) 0L

let fuzz_mips r =
  if r.wall_s <= 0.0 then 0.0 else Int64.to_float r.instret /. r.wall_s /. 1e6

(* Export through the lib/obs schema so `cheri_diff` bands campaign
   throughput like any other benchmark: [instret] drives sim_mips, and
   the outcome tallies ride along as spans.  Shared with [Kfuzz]. *)
let export ~mode ~param ~instret ~wall_s keys tallies =
  let counters = Obs.Counters.create () in
  Obs.Counters.set counters Obs.Counters.instret instret;
  let spans =
    Array.to_list
      (Array.mapi
         (fun i key ->
           let c = Obs.Counters.create () in
           Obs.Counters.set c Obs.Counters.instret tallies.(i);
           ("outcome:" ^ key, c))
         keys)
  in
  { Obs.Export.bench = "fuzz"; mode; param; wall_s; counters; spans }

let export_entry r =
  export ~mode:(mode_key r.cfg.mode) ~param:r.cfg.programs ~instret:r.instret ~wall_s:r.wall_s
    outcome_keys r.tallies

(* The nonzero tallies and the example failures of a report, shared with
   [Kfuzz]. *)
let pp_tallies keys ppf tallies =
  Array.iteri
    (fun i key -> if tallies.(i) <> 0L then Fmt.pf ppf "  %-16s %Ld@." key tallies.(i))
    keys

let pp_failures heading ppf failures =
  if failures <> [] then begin
    Fmt.pf ppf "  %s:@." heading;
    List.iter (fun (seed, reason) -> Fmt.pf ppf "    %Ld: %s@." seed reason) failures
  end

let pp ppf r =
  Fmt.pf ppf "fuzz campaign: mode=%s programs=%d insns=%d base-seed=%Ld wide=%b@."
    (mode_key r.cfg.mode) r.programs_done r.cfg.insns r.cfg.base_seed (gen_cfg r.cfg).Gen.wide;
  pp_tallies outcome_keys ppf r.tallies;
  Fmt.pf ppf "  %-16s %Ld@." "instret" r.instret;
  if r.wall_s > 0.0 then Fmt.pf ppf "  %-16s %.2f (%.1f Mi/s)@." "wall_s" r.wall_s (fuzz_mips r);
  pp_failures "failing seeds" ppf r.failures

(* --- replay and shrinking ------------------------------------------------ *)

(* Re-derive, re-check, and minimize the failure behind [seed]; [None]
   when the seed does not actually fail (e.g. a stale corpus request).
   The shrinker's predicate is the campaign's own harness under [seed]'s
   machine world, so a minimized program is a true reproducer.  Returns
   the corpus record and the shrinker's predicate-check count. *)
let shrink_failure ?engine cfg ~seed =
  let program = Gen.generate (gen_cfg cfg) seed in
  let run = harness ?engine cfg in
  let failing p = (run ~seed p).reason in
  match failing program with
  | None -> None
  | Some reason ->
      let minimized, checks = Shrink.minimize ~check:(fun p -> failing p <> None) program in
      let reason = match failing minimized with Some r -> r | None -> reason in
      Some
        ( {
            Corpus.seed;
            mode = mode_key cfg.mode;
            wide = (gen_cfg cfg).Gen.wide;
            insns = cfg.insns;
            reason;
            program = minimized;
          },
          checks )

(* Deterministic single-program replay: run [program] (by default the
   seed's generated program) under the campaign discipline and describe
   the outcome.  Returns the description and whether it is a failure. *)
let replay ?program ?engine cfg ~seed =
  let program = match program with Some p -> p | None -> Gen.generate (gen_cfg cfg) seed in
  let v = harness ?engine cfg ~seed program in
  (v.text (), v.reason <> None)
