(* Tests for the observational-correctness fuzzer: generator determinism
   and encodability, the single-width and lockstep harnesses on seeded
   smoke campaigns, the shrinker, the failure corpus, and checkpointed
   resume equivalence. *)

let narrow = { Fuzz.Gen.insns = 24; wide = false }
let wide = { Fuzz.Gen.insns = 24; wide = true }

(* --- generator -------------------------------------------------------------- *)

let test_gen_determinism () =
  let a = Fuzz.Gen.generate wide 42L and b = Fuzz.Gen.generate wide 42L in
  Alcotest.(check bool) "same seed, same program" true (a = b);
  let c = Fuzz.Gen.generate wide 43L in
  Alcotest.(check bool) "different seed, different program" true (a <> c)

(* Every generated instruction must survive the encoder round trip: the
   generator's whole vocabulary fits the real instruction formats (CLC's
   scaled 11-bit immediate, CLoad's signed 8-bit, ...). *)
let test_gen_encodable () =
  for seed = 1 to 200 do
    let program = Fuzz.Gen.generate wide (Int64.of_int seed) in
    Array.iter
      (fun insn ->
        let round = Beri.Code.decode (Beri.Code.encode insn) in
        if round <> insn then
          Alcotest.failf "seed %d: %a does not round-trip (got %a)" seed Beri.Insn.pp insn
            Beri.Insn.pp round)
      program
  done

(* --- harnesses --------------------------------------------------------------- *)

let small cfg = { cfg with Fuzz.Campaign.programs = 200; base_seed = 1L }

let run cfg = Fuzz.Campaign.run ~wall:false cfg

let test_single_width_clean () =
  (* Monitor oracles on every retirement over 200 programs: anything the
     generator produces must keep the machine's invariants. *)
  let r = run (small { Fuzz.Campaign.default with mode = Fuzz.Campaign.Cheri; wide = false }) in
  Alcotest.(check bool) "no monitor/hang failures" true (Fuzz.Campaign.clean r);
  Alcotest.(check int) "all programs ran" 200 r.Fuzz.Campaign.programs_done

let test_single_width_agree () =
  (* With narrow bounds the two widths are observationally identical, so
     even their outcome tallies and joint retirement counts agree. *)
  let r256 = run (small { Fuzz.Campaign.default with mode = Fuzz.Campaign.Cheri; wide = false }) in
  let r128 = run (small { Fuzz.Campaign.default with mode = Fuzz.Campaign.Cheri128; wide = false }) in
  Alcotest.(check (list int64))
    "tallies agree across widths"
    (Array.to_list r256.Fuzz.Campaign.tallies)
    (Array.to_list r128.Fuzz.Campaign.tallies);
  Alcotest.(check int64) "instret agrees" r256.Fuzz.Campaign.instret r128.Fuzz.Campaign.instret

let test_lockstep_clean_or_classified () =
  let r = run (small Fuzz.Campaign.default) in
  Alcotest.(check bool) "no mismatch/monitor/hang" true (Fuzz.Campaign.clean r);
  Alcotest.(check bool) "representability divergences occurred and were classified" true
    (Int64.compare r.Fuzz.Campaign.tallies.(Fuzz.Campaign.k_rep) 0L > 0)

(* --- shrinking --------------------------------------------------------------- *)

let test_shrink_synthetic () =
  (* Predicate: program still contains a CCall and a CReturn.  The noise
     around them must all shrink away. *)
  let open Beri.Insn in
  let program =
    [|
      Daddiu (8, 8, 1); CCall (3, 4); Dsll (9, 9, 3); Load (D, false, 10, 20, 0);
      Daddiu (9, 9, 7); CReturn; Store (D, 10, 20, 8); Daddiu (10, 10, -1);
    |]
  in
  let check p =
    Array.exists (function CCall _ -> true | _ -> false) p
    && Array.exists (function CReturn -> true | _ -> false) p
  in
  let minimized, checks = Fuzz.Shrink.minimize ~check program in
  Alcotest.(check int) "shrunk to the two pinned instructions" 2 (Array.length minimized);
  Alcotest.(check bool) "spent some predicate checks" true (checks > 0);
  let again, _ = Fuzz.Shrink.minimize ~check minimized in
  Alcotest.(check bool) "minimization is idempotent" true (again = minimized)

let test_shrink_real_trap () =
  (* Minimize against the real harness: find a seed whose program ends in
     a capability length trap, then shrink while preserving exactly that
     trap.  The reproducer must come out small. *)
  let gcfg = narrow in
  let m = Fuzz.Gen.create_machine Machine.W256 in
  let is_length_trap seed p =
    match Fuzz.Exec.run m gcfg ~seed ~program:p with
    | Fuzz.Exec.Cap_trap c, _ -> Cap.Cause.equal c Cap.Cause.Length_violation
    | _ -> false
  in
  let seed =
    let rec find s =
      if s > 200L then Alcotest.fail "no length-trapping seed in 1..200"
      else if is_length_trap s (Fuzz.Gen.generate gcfg s) then s
      else find (Int64.add s 1L)
    in
    find 1L
  in
  let program = Fuzz.Gen.generate gcfg seed in
  let minimized, _ = Fuzz.Shrink.minimize ~check:(is_length_trap seed) program in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk %d -> %d instructions (<= 10)" (Array.length program)
       (Array.length minimized))
    true
    (Array.length minimized <= 10);
  Alcotest.(check bool) "reproducer still traps" true (is_length_trap seed minimized)

(* --- corpus ------------------------------------------------------------------ *)

let test_corpus_roundtrip () =
  let f =
    {
      Fuzz.Corpus.seed = 4242L;
      mode = "lockstep";
      wide = true;
      insns = 24;
      reason = "c5: length 0x10 vs 0x11";
      program = Fuzz.Gen.generate wide 4242L;
    }
  in
  let dir = Filename.temp_file "cheri-fuzz-corpus" "" in
  Sys.remove dir;
  let path = Fuzz.Corpus.save ~dir f in
  (match Fuzz.Corpus.load path with
  | Error msg -> Alcotest.fail msg
  | Ok g ->
      Alcotest.(check int64) "seed survives" f.Fuzz.Corpus.seed g.Fuzz.Corpus.seed;
      Alcotest.(check string) "mode survives" f.Fuzz.Corpus.mode g.Fuzz.Corpus.mode;
      Alcotest.(check string) "reason survives" f.Fuzz.Corpus.reason g.Fuzz.Corpus.reason;
      Alcotest.(check bool) "program survives the word encoding" true
        (f.Fuzz.Corpus.program = g.Fuzz.Corpus.program));
  Sys.remove path;
  Sys.rmdir dir

(* --- checkpoints ------------------------------------------------------------- *)

let test_checkpoint_roundtrip () =
  let h = Obs.Hist.create ~name:"h" () in
  List.iter (Obs.Hist.observe_int h) [ 1; 5; 900; 77; 12 ];
  let c =
    {
      Fault.Checkpoint.kind = "fuzz";
      fingerprint = "fuzz:lockstep:programs=10:insns=24:base=1:wide=true";
      total = 10;
      next = 7;
      tallies = [ ("ok", 3L); ("trap-cap", 4L) ];
      counters = [ ("instret", 555L) ];
      hists = [ h ];
    }
  in
  let path = Filename.temp_file "cheri-fuzz-ckpt" ".json" in
  Fault.Checkpoint.save path c;
  (match Fault.Checkpoint.load path with
  | Error msg -> Alcotest.fail msg
  | Ok c' ->
      Alcotest.(check string) "kind" c.Fault.Checkpoint.kind c'.Fault.Checkpoint.kind;
      Alcotest.(check string) "fingerprint" c.Fault.Checkpoint.fingerprint
        c'.Fault.Checkpoint.fingerprint;
      Alcotest.(check int) "next" c.Fault.Checkpoint.next c'.Fault.Checkpoint.next;
      Alcotest.(check bool) "tallies" true (c.Fault.Checkpoint.tallies = c'.Fault.Checkpoint.tallies);
      Alcotest.(check bool) "counters" true
        (c.Fault.Checkpoint.counters = c'.Fault.Checkpoint.counters);
      (match c'.Fault.Checkpoint.hists with
      | [ h' ] ->
          Alcotest.(check int) "hist total" h.Obs.Hist.total h'.Obs.Hist.total;
          Alcotest.(check int64) "hist sum" h.Obs.Hist.sum h'.Obs.Hist.sum;
          Alcotest.(check bool) "hist buckets" true (Obs.Hist.nonempty h = Obs.Hist.nonempty h')
      | _ -> Alcotest.fail "expected one histogram"));
  Sys.remove path

let export_bytes r = Obs.Json.to_string (Obs.Export.summary [ Fuzz.Campaign.export_entry r ])

(* The two campaign families [Fault.Checkpoint.run] serves, each as a
   function of its run knobs to the final export's bytes. *)
let instruction_campaign ~jobs ~checkpoint ~resume ~stop_after =
  let cfg = { (small Fuzz.Campaign.default) with Fuzz.Campaign.programs = 300 } in
  export_bytes (Fuzz.Campaign.run ~jobs ~wall:false ?checkpoint ~resume ?stop_after cfg)

let kernel_campaign ~jobs ~checkpoint ~resume ~stop_after =
  let cfg = { Fuzz.Kfuzz.default with Fuzz.Kfuzz.programs = 300 } in
  let r = Fuzz.Kfuzz.run ~jobs ~wall:false ?checkpoint ~resume ?stop_after cfg in
  Obs.Json.to_string (Obs.Export.summary [ Fuzz.Kfuzz.export_entry r ])

let test_campaign_resume_identical () =
  List.iter
    (fun (name, campaign) ->
      let full = campaign ~jobs:4 ~checkpoint:None ~resume:false ~stop_after:None in
      let path = Filename.temp_file "cheri-fuzz-resume" ".json" in
      (* Interrupt after 150 programs (mid-chunk: 150 is not a multiple of
         the 128-seed shard), then resume with a different domain count. *)
      ignore (campaign ~jobs:2 ~checkpoint:(Some path) ~resume:false ~stop_after:(Some 150));
      let resumed = campaign ~jobs:4 ~checkpoint:(Some path) ~resume:true ~stop_after:None in
      Alcotest.(check string)
        (name ^ ": resumed export is byte-identical to uninterrupted")
        full resumed;
      (* A missing checkpoint file is a campaign that has not started yet. *)
      Sys.remove path;
      let fresh = campaign ~jobs:1 ~checkpoint:(Some path) ~resume:true ~stop_after:None in
      Sys.remove path;
      Alcotest.(check string) (name ^ ": resume from a missing file starts at seed 0") full fresh)
    [ ("instructions", instruction_campaign); ("kernel", kernel_campaign) ]

let test_campaign_resume_rejects_mismatch () =
  let cfg = { (small Fuzz.Campaign.default) with Fuzz.Campaign.programs = 64 } in
  let path = Filename.temp_file "cheri-fuzz-resume-mismatch" ".json" in
  let _ = Fuzz.Campaign.run ~wall:false ~checkpoint:path ~stop_after:32 cfg in
  let refused what cfg =
    match Fuzz.Campaign.run ~wall:false ~checkpoint:path ~resume:true cfg with
    | _ -> Alcotest.failf "resume accepted %s" what
    | exception Fault.Checkpoint.Refused _ -> ()
  in
  refused "a checkpoint from a different campaign" { cfg with Fuzz.Campaign.base_seed = 99L };
  let c = match Fault.Checkpoint.load path with Ok c -> c | Error msg -> Alcotest.fail msg in
  List.iter
    (fun (what, c) ->
      Fault.Checkpoint.save path c;
      refused what cfg)
    [
      ("a cursor past the end", { c with Fault.Checkpoint.next = 500 });
      ("a negative cursor", { c with Fault.Checkpoint.next = -200 });
      ("a total for another seed count", { c with Fault.Checkpoint.total = 300 });
      ("another kind of campaign", { c with Fault.Checkpoint.kind = "fault" });
      ("a checkpoint without histograms", { c with Fault.Checkpoint.hists = [] });
    ];
  Sys.remove path

(* Host time accumulates across a resume, so a resumed campaign's rate
   divides the whole campaign's instret by the whole campaign's time;
   with wall clocks off it stays 0.0. *)
let test_campaign_resume_accumulates_wall () =
  let cfg = { (small Fuzz.Campaign.default) with Fuzz.Campaign.programs = 64 } in
  let path = Filename.temp_file "cheri-fuzz-resume-wall" ".json" in
  let _ = Fuzz.Campaign.run ~checkpoint:path ~stop_after:32 cfg in
  (match Fault.Checkpoint.load path with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
      let counters = List.remove_assoc "wall_us" c.Fault.Checkpoint.counters in
      Fault.Checkpoint.save path
        { c with Fault.Checkpoint.counters = ("wall_us", 10_000_000_000L) :: counters });
  let resumed = Fuzz.Campaign.run ~checkpoint:path ~resume:true cfg in
  let unwalled = Fuzz.Campaign.run ~wall:false ~checkpoint:path ~resume:true cfg in
  Sys.remove path;
  Alcotest.(check bool) "10,000 s of prior host time counted" true
    (resumed.Fuzz.Campaign.wall_s >= 10_000.);
  Alcotest.(check (float 0.0)) "no wall clock, no host time" 0.0 unwalled.Fuzz.Campaign.wall_s

let suites =
  [
    ( "fuzz",
      [
        Alcotest.test_case "generator determinism" `Quick test_gen_determinism;
        Alcotest.test_case "generator emits only encodable programs" `Quick test_gen_encodable;
        Alcotest.test_case "single-width campaign sweeps clean" `Quick test_single_width_clean;
        Alcotest.test_case "narrow campaigns agree across widths" `Quick test_single_width_agree;
        Alcotest.test_case "lockstep clean or classified" `Quick test_lockstep_clean_or_classified;
        Alcotest.test_case "shrinker: synthetic predicate" `Quick test_shrink_synthetic;
        Alcotest.test_case "shrinker: real capability trap" `Quick test_shrink_real_trap;
        Alcotest.test_case "corpus round trip" `Quick test_corpus_roundtrip;
        Alcotest.test_case "checkpoint round trip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "resume is byte-identical" `Quick test_campaign_resume_identical;
        Alcotest.test_case "resume rejects foreign checkpoints" `Quick
          test_campaign_resume_rejects_mismatch;
        Alcotest.test_case "resume accumulates host time" `Quick
          test_campaign_resume_accumulates_wall;
      ] );
  ]
