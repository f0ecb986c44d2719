(* The fuzzing workload: [Fuzz.Campaign.run] in lockstep mode (a 256-bit
   and a 128-bit machine stepping the same 24-instruction program and
   diffing state at every retirement).  Programs retire ~18
   instructions, so the cost is per-program work — generation,
   [Gen.reset]/[Gen.load], the decode-cache flush, and the plain
   [Machine.step] path with hooks attached — and not the interpreter's
   inner loop.  Timing is off, so the hierarchy model is bypassed.

   Each work item is one campaign of [per_call] programs from the run's
   base seed; every item fuzzes the same programs, so every item must
   end with the same tallies and its fastest time is comparable across
   runs.  The traced pass replays the seeds through the public
   per-program API ([Gen.create_machine], [Gen.generate],
   [Lockstep.run]) and must reproduce the campaign's tallies. *)

module Campaign = Fuzz.Campaign
module Gen = Fuzz.Gen
module Lockstep = Fuzz.Lockstep

let per_call ~smoke = if smoke then 256 else 1024
let ablation_programs ~smoke = if smoke then 64 else 4096

(* Seed 0 gives the campaign default base seed 1. *)
let base_seed ~seed = Int64.add 1L (Int64.shift_left (Int64.of_int seed) 32)

type st = {
  smoke : bool;
  base : int64;
  per_call : int;
  mutable traced_programs : int;
  mutable traced_insns : int;
}

(* Set-up: the lockstep machine pair. *)
let setup ~smoke ~seed tr =
  List.iter
    (fun width -> ignore (Tracer.maybe tr "machine.create" (fun () -> Gen.create_machine width) : Machine.t))
    [ Machine.W256; Machine.W128 ];
  { smoke; base = base_seed ~seed; per_call = per_call ~smoke; traced_programs = 0; traced_insns = 0 }

let cfg st =
  { Campaign.default with Campaign.mode = Campaign.Lockstep; programs = st.per_call; base_seed = st.base }

let n_keys = Array.length Campaign.outcome_keys

let key_index key =
  let rec go i = if Campaign.outcome_keys.(i) = key then i else go (i + 1) in
  go 0

(* The campaign's failure classes: an oracle fired, a program hung, or
   the two widths disagreed. *)
let failures (tallies : int64 array) =
  Int64.to_int
    (Int64.add tallies.(Campaign.k_monitor)
       (Int64.add tallies.(Campaign.k_hang) tallies.(Campaign.k_mismatch)))

(* Run the programs of [cfg] through the lockstep harness the way
   [Campaign.run_chunk] does — a fresh machine pair per 128-seed chunk,
   each passed through [machines] — and tally them. *)
let lockstep_programs ?tr ?engine ?(machines = fun m -> m) (cfg : Campaign.cfg) =
  let gcfg = Campaign.gen_cfg cfg in
  let tallies = Array.make n_keys 0L and instret = ref 0 in
  List.iter
    (fun (lo, len) ->
      let create width =
        let m = Tracer.maybe tr "machine.create" (fun () -> Gen.create_machine ?engine width) in
        Option.iter (fun t -> Kit.wrap_kernel t m) tr;
        machines m
      in
      let m256 = create Machine.W256 in
      let m128 = create Machine.W128 in
      for i = 0 to len - 1 do
        let seed = Int64.add cfg.Campaign.base_seed (Int64.of_int (lo + i)) in
        let id = Int64.to_int seed in
        let program = Tracer.maybe tr ~id "fuzz.generate" (fun () -> Gen.generate gcfg seed) in
        let outcome =
          Tracer.maybe tr ~id "fuzz.lockstep" (fun () -> Lockstep.run gcfg ~seed ~program ~m256 ~m128)
        in
        let k = key_index (Lockstep.outcome_key outcome) in
        tallies.(k) <- Int64.add tallies.(k) 1L;
        instret :=
          !instret
          +
          match outcome with
          | Lockstep.Joint (_, n) -> n
          | Lockstep.Representability d | Lockstep.Mismatch d -> d.Lockstep.step
      done)
    (Campaign.chunks_between 0 cfg.Campaign.programs);
  (tallies, !instret)

let fold_tallies h tallies instret = Kit.fold_int (Array.fold_left Kit.mix h tallies) instret

let pass st tr ~budget_ns =
  Kit.repeat_pass ~budget_ns ~min_items:(if st.smoke then 1 else 4) (fun k ->
      let cfg = cfg st in
      let (tallies, instret, programs), ns, words =
        Kit.measure (fun () ->
            match tr with
            | None ->
                let r = Campaign.run ~jobs:1 cfg in
                (r.Campaign.tallies, Int64.to_int r.Campaign.instret, r.Campaign.programs_done)
            | Some t ->
                Tracer.span t ~id:k "fuzz.item" (fun () ->
                    let tallies, instret = lockstep_programs ~tr:t cfg in
                    (tallies, instret, cfg.Campaign.programs)))
      in
      if tr <> None then begin
        st.traced_programs <- st.traced_programs + programs;
        st.traced_insns <- st.traced_insns + instret
      end;
      {
        Kit.r_ns = ns;
        r_words = words;
        r_insns = instret;
        r_sb = 0 (* lockstep steps with [Machine.step]: no superblocks *);
        r_ops = programs;
        r_failed = failures tallies + abs (programs - cfg.Campaign.programs);
        r_digest = fold_tallies Kit.digest_init tallies instret;
      })

(* Ablation slice: the programs from the run's base seed. *)
let sample st variant =
  let engine = match variant with Kit.Plain_engine -> Some Machine.Plain | _ -> None in
  let machines m =
    (match variant with
    | Kit.Probe -> Machine.set_probe m (Some (Obs.Probe.create ()))
    | Kit.Toggle_timing -> Machine.set_timing m true
    | Kit.Base | Kit.Plain_engine -> ());
    m
  in
  let cfg = { (cfg st) with Campaign.programs = ablation_programs ~smoke:st.smoke } in
  let (tallies, instret), ns, words = Kit.measure (fun () -> lockstep_programs ?engine ~machines cfg) in
  let h = fold_tallies Kit.digest_init tallies instret in
  { Kit.s_ns = ns; s_insns = instret; s_words = words; arch = h; func = h }

(* Per-program costs of the reset path, each timed in isolation on one
   machine and multiplied by its calls per program (two machines). *)
let extra_rows st tr =
  let n = ablation_programs ~smoke:st.smoke in
  let gcfg = Campaign.gen_cfg (cfg st) in
  let seeds = Array.init n (fun i -> Int64.add st.base (Int64.of_int i)) in
  let programs = Array.map (Gen.generate gcfg) seeds in
  let m = Gen.create_machine Machine.W256 in
  let per_program_us f =
    let t0 = Tracer.now_ns () in
    Array.iteri f seeds;
    2.0 *. float_of_int (Tracer.now_ns () - t0) /. float_of_int n /. 1e3
  in
  let reset_load =
    per_program_us (fun i seed ->
        Gen.reset m gcfg seed;
        Gen.load m programs.(i))
  in
  let invalidate = per_program_us (fun _ _ -> Machine.invalidate_icache m) in
  let mean_us name = Tracer.mean_ns tr name /. 1e3 in
  Kit.
    [
      row "fuzz.generate_us" "us" (mean_us "fuzz.generate");
      row "fuzz.lockstep_us" "us" (mean_us "fuzz.lockstep");
      row "fuzz.reset_load_us" "us" reset_load;
      row "fuzz.invalidate_icache_us" "us" invalidate;
      row "fuzz.insns_per_program" "count"
        (float_of_int st.traced_insns /. float_of_int (max 1 st.traced_programs));
    ]

let workload ~smoke ~seed =
  {
    Kit.setup_reps = (if smoke then 1 else 101);
    setup = setup ~smoke ~seed;
    pass;
    exec_span = "fuzz.lockstep";
    timing = false;
    sample;
    extra_rows;
  }
