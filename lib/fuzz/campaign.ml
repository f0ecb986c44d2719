(* Checkpointed fuzzing campaigns: N seeded programs through the chosen
   harness, fanned across domains, with deterministic aggregation.

   Determinism contract (what the @par-determ and resume tests pin):
   a campaign's final result is a pure function of its [cfg].  Three
   mechanisms deliver that —

     - every program's outcome is a pure function of its seed ([Gen]'s
       full reset makes machine reuse invisible);
     - sharding partitions the seed range into fixed 128-seed chunks at
       *absolute* seed indices and merges shard results in seed order
       ([Exp.Pool.map] preserves input order), so [--jobs N] changes
       wall-clock only;
     - checkpoints snapshot the seed cursor plus the aggregates
       ([Fault.Checkpoint]), and resume folds them back in and continues
       at the cursor, so an interrupted-and-resumed campaign's final
       export is byte-identical to an uninterrupted one.

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

(* A campaign failure: a seed whose program must be shrunk and filed.
   Monitor hits, hangs, and lockstep mismatches qualify; traps and
   representability divergences are expected behaviour. *)
let failure_index = function
  | i when i = k_monitor || i = k_hang || i = k_mismatch -> true
  | _ -> false

type result = {
  cfg : cfg;
  programs_done : int;
  tallies : int64 array; (* indexed per [outcome_keys] *)
  instret : int64; (* joint retirements (lockstep counts the pair once) *)
  wall_s : float; (* this process's share only; 0.0 when wall is off *)
  insn_hist : Obs.Hist.t; (* retired instructions per program *)
  violation_hist : Obs.Hist.t; (* oracle violations per flagged program *)
  failures : (int64 * string) list; (* example failing seeds with reasons (capped) *)
}

let chunk_size = 128
let max_failures = 32

let fingerprint cfg =
  Printf.sprintf "fuzz:%s:programs=%d:insns=%d:base=%Ld:wide=%b" (mode_key cfg.mode) cfg.programs
    cfg.insns cfg.base_seed cfg.wide

(* --- per-chunk worker ---------------------------------------------------- *)

type shard = {
  s_tallies : int64 array;
  s_instret : int64;
  s_insn_hist : Obs.Hist.t;
  s_violation_hist : Obs.Hist.t;
  s_failures : (int64 * string) list; (* in seed order *)
}

let new_insn_hist () = Obs.Hist.create ~name:"fuzz-insns-per-program" ()
let new_violation_hist () = Obs.Hist.create ~name:"fuzz-oracle-violations" ()

(* Run seeds [lo, lo+len) and aggregate locally.  Fresh machines per
   chunk: machine state never crosses a shard boundary, so the chunk
   partition is invisible in the results.

   [engine] overrides the interpreter engine of the single-width and
   lockstep machines.  It is deliberately *not* part of [cfg] (and so
   not part of the checkpoint fingerprint): the engines are required to
   be architecturally indistinguishable, so a campaign result is the
   same function of [cfg] under either — that equivalence is itself
   pinned by the [Engines] mode, which runs both and ignores the
   override. *)
let run_chunk ?engine cfg (lo, len) =
  let gcfg = gen_cfg cfg in
  let tallies = Array.make (Array.length outcome_keys) 0L in
  let instret = ref 0L in
  let ih = new_insn_hist () in
  let vh = new_violation_hist () in
  let failures = ref [] in
  let note idx seed retired reason nviol =
    tallies.(idx) <- Int64.add tallies.(idx) 1L;
    instret := Int64.add !instret (Int64.of_int retired);
    Obs.Hist.observe_int ih retired;
    if nviol > 0 then Obs.Hist.observe_int vh nviol;
    match reason with
    | Some r when failure_index idx && List.length !failures < max_failures ->
        failures := (seed, r) :: !failures
    | _ -> ()
  in
  let note_single seed (outcome, retired) =
    match outcome with
    | Exec.Clean -> note k_ok seed retired None 0
    | Exec.Cap_trap _ -> note k_trap_cap seed retired None 0
    | Exec.Other_trap _ -> note k_trap_other seed retired None 0
    | Exec.Hang -> note k_hang seed retired (Some "instruction budget exhausted") 0
    | Exec.Monitor vs ->
        note k_monitor seed retired
          (Some (Fmt.str "%a" (Fmt.list ~sep:Fmt.semi Fault.Monitor.pp_violation) vs))
          (List.length vs)
  in
  (match cfg.mode with
  | Cheri | Cheri128 ->
      let width = if cfg.mode = Cheri then Machine.W256 else Machine.W128 in
      let m = Gen.create_machine ?engine width in
      for i = 0 to len - 1 do
        let seed = Int64.add cfg.base_seed (Int64.of_int (lo + i)) in
        let program = Gen.generate gcfg seed in
        note_single seed (Exec.run m gcfg ~seed ~program)
      done
  | Lockstep ->
      let m256 = Gen.create_machine ?engine Machine.W256 in
      let m128 = Gen.create_machine ?engine Machine.W128 in
      for i = 0 to len - 1 do
        let seed = Int64.add cfg.base_seed (Int64.of_int (lo + i)) in
        let program = Gen.generate gcfg seed in
        match Lockstep.run gcfg ~seed ~program ~m256 ~m128 with
        | Lockstep.Joint (o, retired) -> note_single seed (o, retired)
        | Lockstep.Representability d -> note k_rep seed d.Lockstep.step None 0
        | Lockstep.Mismatch d -> note k_mismatch seed d.Lockstep.step (Some d.Lockstep.what) 0
      done
  | Engines ->
      let m_sb, m_plain = Englock.create_pair () in
      for i = 0 to len - 1 do
        let seed = Int64.add cfg.base_seed (Int64.of_int (lo + i)) in
        let program = Gen.generate gcfg seed in
        match Englock.run gcfg ~seed ~program ~m_sb ~m_plain with
        | Englock.Agree (o, retired) -> note_single seed (o, retired)
        | Englock.Engine_mismatch { what } -> note k_mismatch seed 0 (Some what) 0
      done);
  {
    s_tallies = tallies;
    s_instret = !instret;
    s_insn_hist = ih;
    s_violation_hist = vh;
    s_failures = List.rev !failures;
  }

(* --- the campaign loop --------------------------------------------------- *)

(* Fixed chunk grid at absolute seed indices: the first chunk of a
   resumed range may be partial (up to the next multiple of
   [chunk_size]), every later one is grid-aligned. *)
let chunks_between start stop =
  let rec go i acc =
    if i >= stop then List.rev acc
    else
      let e = min stop (((i / chunk_size) + 1) * chunk_size) in
      go e ((i, e - i) :: acc)
  in
  go start []

exception Resume_mismatch of string

let run ?(jobs = 1) ?checkpoint ?(checkpoint_every = 2048) ?(resume = false) ?stop_after
    ?(wall = true) ?engine cfg =
  let fp = fingerprint cfg in
  let n_keys = Array.length outcome_keys in
  let tallies = Array.make n_keys 0L in
  let instret = ref 0L in
  let ih = new_insn_hist () in
  let vh = new_violation_hist () in
  let failures = ref [] in
  let start =
    if not resume then 0
    else
      match checkpoint with
      | None -> raise (Resume_mismatch "--resume requires --checkpoint FILE")
      | Some path -> (
          match Fault.Checkpoint.load path with
          | Error msg -> raise (Resume_mismatch msg)
          | Ok c ->
              if c.Fault.Checkpoint.kind <> "fuzz" then
                raise
                  (Resume_mismatch
                     (Printf.sprintf "%s: checkpoint kind %S is not a fuzz campaign" path
                        c.Fault.Checkpoint.kind));
              if c.Fault.Checkpoint.fingerprint <> fp then
                raise
                  (Resume_mismatch
                     (Printf.sprintf "%s: checkpoint is for a different campaign\n  have %s\n  want %s"
                        path c.Fault.Checkpoint.fingerprint fp));
              Array.iteri
                (fun i key ->
                  match List.assoc_opt key c.Fault.Checkpoint.tallies with
                  | Some v -> tallies.(i) <- v
                  | None -> ())
                outcome_keys;
              (match List.assoc_opt "instret" c.Fault.Checkpoint.counters with
              | Some v -> instret := v
              | None -> ());
              (match c.Fault.Checkpoint.hists with
              | [ h1; h2 ] ->
                  Obs.Hist.merge ih h1;
                  Obs.Hist.merge vh h2
              | _ -> raise (Resume_mismatch (path ^ ": expected two histograms in checkpoint")));
              c.Fault.Checkpoint.next)
  in
  let stop =
    match stop_after with Some n -> min cfg.programs (start + n) | None -> cfg.programs
  in
  let ndone = ref start in
  let save () =
    match checkpoint with
    | None -> ()
    | Some path ->
        Fault.Checkpoint.save path
          {
            Fault.Checkpoint.kind = "fuzz";
            fingerprint = fp;
            total = cfg.programs;
            next = !ndone;
            tallies = Array.to_list (Array.mapi (fun i k -> (k, tallies.(i))) outcome_keys);
            counters = [ ("instret", !instret) ];
            hists = [ ih; vh ];
          }
  in
  let t0 = if wall then Unix.gettimeofday () else 0.0 in
  let next_ckpt = ref (((start / checkpoint_every) + 1) * checkpoint_every) in
  let pending = ref (chunks_between start stop) in
  while !pending <> [] do
    let rec take k xs = if k = 0 then ([], xs) else match xs with [] -> ([], []) | x :: tl -> let a, b = take (k - 1) tl in (x :: a, b) in
    let batch, rest = take (max 1 jobs) !pending in
    pending := rest;
    let shards = Exp.Pool.map ~jobs (run_chunk ?engine cfg) batch in
    List.iter
      (fun s ->
        Array.iteri (fun i v -> tallies.(i) <- Int64.add tallies.(i) v) s.s_tallies;
        instret := Int64.add !instret s.s_instret;
        Obs.Hist.merge ih s.s_insn_hist;
        Obs.Hist.merge vh s.s_violation_hist;
        List.iter
          (fun f -> if List.length !failures < max_failures then failures := f :: !failures)
          s.s_failures;
        ndone := !ndone + Int64.to_int (Array.fold_left Int64.add 0L s.s_tallies))
      shards;
    if checkpoint <> None && (!ndone >= !next_ckpt || !pending = []) then begin
      save ();
      while !next_ckpt <= !ndone do
        next_ckpt := !next_ckpt + checkpoint_every
      done
    end
  done;
  let wall_s = if wall then Unix.gettimeofday () -. t0 else 0.0 in
  {
    cfg;
    programs_done = !ndone;
    tallies;
    instret = !instret;
    wall_s;
    insn_hist = ih;
    violation_hist = vh;
    failures = List.rev !failures;
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

(* Export through the lib/obs schema so `cheri_diff` bands fuzz
   throughput like any other benchmark: the run's instret drives
   sim_mips, and the outcome tallies ride along as spans. *)
let export_entry r =
  let counters = Obs.Counters.create () in
  Obs.Counters.set counters Obs.Counters.instret r.instret;
  let spans =
    Array.to_list
      (Array.mapi
         (fun i key ->
           let c = Obs.Counters.create () in
           Obs.Counters.set c Obs.Counters.instret r.tallies.(i);
           ("outcome:" ^ key, c))
         outcome_keys)
  in
  {
    Obs.Export.bench = "fuzz";
    mode = mode_key r.cfg.mode;
    param = r.cfg.programs;
    wall_s = r.wall_s;
    counters;
    spans;
  }

(* --- replay and shrinking ------------------------------------------------ *)

(* A harness bound to one (cfg, seed): runs an arbitrary candidate
   program under exactly the campaign's execution discipline and reports
   [Some reason] when it is a campaign failure.  This is the predicate
   the shrinker minimizes against, so a minimized program is a true
   reproducer under the original seed's machine world. *)
let make_harness ?engine cfg ~seed =
  let gcfg = gen_cfg cfg in
  let of_single = function
    | Exec.Monitor vs, _ ->
        Some (Fmt.str "%a" (Fmt.list ~sep:Fmt.semi Fault.Monitor.pp_violation) vs)
    | Exec.Hang, _ -> Some "instruction budget exhausted"
    | _ -> None
  in
  match cfg.mode with
  | Cheri | Cheri128 ->
      let width = if cfg.mode = Cheri then Machine.W256 else Machine.W128 in
      let m = Gen.create_machine ?engine width in
      fun program -> of_single (Exec.run m gcfg ~seed ~program)
  | Lockstep ->
      let m256 = Gen.create_machine ?engine Machine.W256 in
      let m128 = Gen.create_machine ?engine Machine.W128 in
      fun program ->
        (match Lockstep.run gcfg ~seed ~program ~m256 ~m128 with
        | Lockstep.Mismatch d -> Some d.Lockstep.what
        | Lockstep.Joint (o, n) -> of_single (o, n)
        | Lockstep.Representability _ -> None)
  | Engines ->
      let m_sb, m_plain = Englock.create_pair () in
      fun program ->
        (match Englock.run gcfg ~seed ~program ~m_sb ~m_plain with
        | Englock.Engine_mismatch { what } -> Some what
        | Englock.Agree (o, n) -> of_single (o, n))

(* Re-derive, re-check, and minimize the failure behind [seed]; [None]
   when the seed does not actually fail (e.g. a stale corpus request).
   Returns the corpus record and the shrinker's predicate-check count. *)
let shrink_failure ?engine cfg ~seed =
  let program = Gen.generate (gen_cfg cfg) seed in
  let failing = make_harness ?engine cfg ~seed in
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
  let gcfg = gen_cfg cfg in
  let program = match program with Some p -> p | None -> Gen.generate gcfg seed in
  match cfg.mode with
  | Cheri | Cheri128 ->
      let width = if cfg.mode = Cheri then Machine.W256 else Machine.W128 in
      let m = Gen.create_machine ?engine width in
      let outcome, retired = Exec.run m gcfg ~seed ~program in
      ( Fmt.str "%a (%d retired)" Exec.pp_outcome outcome retired,
        match outcome with Exec.Monitor _ | Exec.Hang -> true | _ -> false )
  | Lockstep ->
      let m256 = Gen.create_machine ?engine Machine.W256 in
      let m128 = Gen.create_machine ?engine Machine.W128 in
      let outcome = Lockstep.run gcfg ~seed ~program ~m256 ~m128 in
      ( Fmt.str "%a" Lockstep.pp_outcome outcome,
        match outcome with
        | Lockstep.Mismatch _ | Lockstep.Joint (Exec.Monitor _, _) | Lockstep.Joint (Exec.Hang, _)
          ->
            true
        | _ -> false )
  | Engines ->
      let m_sb, m_plain = Englock.create_pair () in
      let outcome = Englock.run gcfg ~seed ~program ~m_sb ~m_plain in
      ( Fmt.str "%a" Englock.pp_outcome outcome,
        match outcome with
        | Englock.Engine_mismatch _
        | Englock.Agree (Exec.Monitor _, _)
        | Englock.Agree (Exec.Hang, _) ->
            true
        | _ -> false )

let pp ppf r =
  Fmt.pf ppf "fuzz campaign: mode=%s programs=%d insns=%d base-seed=%Ld wide=%b@."
    (mode_key r.cfg.mode) r.programs_done r.cfg.insns r.cfg.base_seed (gen_cfg r.cfg).Gen.wide;
  Array.iteri
    (fun i key -> if r.tallies.(i) <> 0L then Fmt.pf ppf "  %-16s %Ld@." key r.tallies.(i))
    outcome_keys;
  Fmt.pf ppf "  %-16s %Ld@." "instret" r.instret;
  if r.wall_s > 0.0 then Fmt.pf ppf "  %-16s %.2f (%.1f Mi/s)@." "wall_s" r.wall_s (fuzz_mips r);
  if r.failures <> [] then begin
    Fmt.pf ppf "  failing seeds:@.";
    List.iter (fun (seed, reason) -> Fmt.pf ppf "    %Ld: %s@." seed reason) r.failures
  end
