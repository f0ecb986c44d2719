(* The differential half of the regression harness: compare two loaded
   baselines (Obs.Baseline) run-by-run, field-by-field, and classify
   every delta against a threshold policy.

   The simulator is deterministic, so exact equality is demanded of every
   counter whose class ([Counters.class_of]) is [Architectural] —
   instret, cycles, cache/TLB/tag events, the capability instruction
   mix, and the kernel crossing counters (ccalls, creturns, ctx_saves,
   ctx_restores) — and of every span field (instret/cycles aggregates,
   latency pseudo-spans, trace histogram fields).  Counters of another
   class are skipped: host telemetry differs between interpreter engines
   of the same program.  Only host-timing numbers (`wall_s`, `sim_mips`,
   `interp_instr_per_s`) get a tolerance band, and by default exceeding
   it is reported but not fatal (committed baselines travel across
   hosts).  `cheri_diff` and `bench regress` exit non-zero iff [ok] is
   false: an architectural field changed, or a run appeared or
   disappeared. *)

type verdict =
  | Arch_mismatch (* exact-match counter differs: the regression signal *)
  | Wall_within (* wall-clock delta inside the tolerance band *)
  | Wall_exceeded (* outside the band: fatal only under [fail_on_wall] *)
  | Only_in_a (* run present in A but missing from B *)
  | Only_in_b

let verdict_name = function
  | Arch_mismatch -> "arch-mismatch"
  | Wall_within -> "wall-within"
  | Wall_exceeded -> "wall-exceeded"
  | Only_in_a -> "only-in-a"
  | Only_in_b -> "only-in-b"

type row = {
  key : string; (* "bench/mode/param", or "(run)" for file-level fields *)
  field : string; (* "counters.instret", "spans.alloc.cycles", "wall_s", ... *)
  va : string; (* rendered values ("-" when absent on that side) *)
  vb : string;
  rel_pct : float option; (* (b-a)/a, when both sides are present and a <> 0 *)
  verdict : verdict;
}

type policy = {
  wall_tol_pct : float; (* tolerance band for wall-clock fields *)
  fail_on_wall : bool; (* treat Wall_exceeded as fatal *)
}

let default_policy = { wall_tol_pct = 50.0; fail_on_wall = false }

type report = {
  policy : policy;
  compared : int; (* fields compared across all matched runs *)
  rows : row list; (* every non-equal comparison, in run order *)
  arch_mismatches : int;
  wall_flagged : int;
  missing : int; (* runs present on only one side *)
}

let rel a b = if a = 0.0 then None else Some (100.0 *. (b -. a) /. a)

(* --- field comparisons ------------------------------------------------------ *)

let exact_row ~key ~field a b =
  match (a, b) with
  | Some a, Some b when Int64.equal a b -> None
  | _ ->
      let render = function Some v -> Int64.to_string v | None -> "-" in
      let rel_pct =
        match (a, b) with
        | Some a, Some b -> rel (Int64.to_float a) (Int64.to_float b)
        | _ -> None
      in
      Some { key; field; va = render a; vb = render b; rel_pct; verdict = Arch_mismatch }

let wall_row ~policy ~key ~field a b =
  if a <= 0.0 || b <= 0.0 then None (* absent or unmeasured on a side: nothing to judge *)
  else
    let rel_pct = 100.0 *. (b -. a) /. a in
    let verdict = if Float.abs rel_pct <= policy.wall_tol_pct then Wall_within else Wall_exceeded in
    if verdict = Wall_within then None
    else
      Some
        {
          key;
          field;
          va = Printf.sprintf "%.3f" a;
          vb = Printf.sprintf "%.3f" b;
          rel_pct = Some rel_pct;
          verdict;
        }

(* Union of assoc keys, preserving A's order and appending B-only names. *)
let union_names a b =
  let names = List.map fst a in
  names @ List.filter (fun n -> not (List.mem n names)) (List.map fst b)

let compare_assoc ~key ~prefix a b =
  let names = union_names a b in
  let rows =
    List.filter_map
      (fun name ->
        exact_row ~key ~field:(prefix ^ name) (List.assoc_opt name a) (List.assoc_opt name b))
      names
  in
  (List.length names, rows)

(* Counter fields named after a non-architectural counter are skipped;
   every other field (span and histogram fields included) is exact. *)
let architectural =
  List.filter (fun (name, _) ->
      match Counters.index_of_name name with Some i -> Counters.is_architectural i | None -> true)

let compare_entry ~policy (a : Baseline.entry) (b : Baseline.entry) =
  let key = Baseline.key a in
  let counters_compared, counter_rows =
    compare_assoc ~key ~prefix:"counters." (architectural a.Baseline.counters)
      (architectural b.Baseline.counters)
  in
  let span_names = union_names a.Baseline.spans b.Baseline.spans in
  let span_results =
    List.map
      (fun name ->
        let fields side = Option.value ~default:[] (List.assoc_opt name side) in
        compare_assoc ~key
          ~prefix:("spans." ^ name ^ ".")
          (fields a.Baseline.spans) (fields b.Baseline.spans))
      span_names
  in
  let wall = wall_row ~policy ~key ~field:"wall_s" a.Baseline.wall_s b.Baseline.wall_s in
  (* sim_mips is host timing like wall_s: banded, never exact (and
     skipped when either side is unmeasured, i.e. 0.0). *)
  let mips = wall_row ~policy ~key ~field:"sim_mips" a.Baseline.sim_mips b.Baseline.sim_mips in
  let compared =
    2 + counters_compared + List.fold_left (fun acc (n, _) -> acc + n) 0 span_results
  in
  ( compared,
    counter_rows
    @ List.concat_map snd span_results
    @ (match wall with Some r -> [ r ] | None -> [])
    @ (match mips with Some r -> [ r ] | None -> []) )

(* --- the whole-file diff ----------------------------------------------------- *)

let run ?(policy = default_policy) (a : Baseline.t) (b : Baseline.t) =
  let throughput =
    wall_row ~policy ~key:"(run)" ~field:"interp_instr_per_s" a.Baseline.interp_instr_per_s
      b.Baseline.interp_instr_per_s
  in
  let keys =
    List.map Baseline.key a.Baseline.entries
    @ List.filter
        (fun k -> not (List.exists (fun e -> Baseline.key e = k) a.Baseline.entries))
        (List.map Baseline.key b.Baseline.entries)
  in
  let compared = ref 1 and rows = ref [] in
  List.iter
    (fun k ->
      match (Baseline.find a k, Baseline.find b k) with
      | Some ea, Some eb ->
          let n, rs = compare_entry ~policy ea eb in
          compared := !compared + n;
          rows := !rows @ rs
      | Some _, None ->
          rows := !rows @ [ { key = k; field = ""; va = "present"; vb = "-"; rel_pct = None; verdict = Only_in_a } ]
      | None, Some _ ->
          rows := !rows @ [ { key = k; field = ""; va = "-"; vb = "present"; rel_pct = None; verdict = Only_in_b } ]
      | None, None -> ())
    keys;
  let rows = !rows @ (match throughput with Some r -> [ r ] | None -> []) in
  let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  {
    policy;
    compared = !compared;
    rows;
    arch_mismatches = count Arch_mismatch;
    wall_flagged = count Wall_exceeded;
    missing = count Only_in_a + count Only_in_b;
  }

(* The regression gate: architectural counters identical, run sets
   identical, and (under [fail_on_wall] only) wall clocks in band. *)
let ok r =
  r.arch_mismatches = 0 && r.missing = 0 && ((not r.policy.fail_on_wall) || r.wall_flagged = 0)

let exit_code r = if ok r then 0 else 1

(* --- rendering ---------------------------------------------------------------- *)

let pp_rel ppf = function
  | Some pct -> Fmt.pf ppf "%+9.2f%%" pct
  | None -> Fmt.pf ppf "%10s" "-"

let pp ppf r =
  Fmt.pf ppf "@[<v>";
  if r.rows = [] then Fmt.pf ppf "identical: %d fields compared, no deltas@,"
      r.compared
  else begin
    Fmt.pf ppf "%-22s %-26s %16s %16s %10s %s@," "run" "field" "A" "B" "rel" "verdict";
    List.iter
      (fun row ->
        Fmt.pf ppf "%-22s %-26s %16s %16s %a %s@," row.key row.field row.va row.vb pp_rel
          row.rel_pct (verdict_name row.verdict))
      r.rows
  end;
  Fmt.pf ppf
    "%d fields compared: %d architectural mismatches, %d wall-clock deltas out of band \
     (tolerance %.0f%%), %d runs missing@,verdict: %s@]"
    r.compared r.arch_mismatches r.wall_flagged r.policy.wall_tol_pct r.missing
    (if ok r then "OK" else "REGRESSION")

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "cheri-obs-diff/1");
      ("compared", Json.Int (Int64.of_int r.compared));
      ("arch_mismatches", Json.Int (Int64.of_int r.arch_mismatches));
      ("wall_flagged", Json.Int (Int64.of_int r.wall_flagged));
      ("missing", Json.Int (Int64.of_int r.missing));
      ("wall_tol_pct", Json.Float r.policy.wall_tol_pct);
      ("ok", Json.Bool (ok r));
      ( "rows",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [
                   ("run", Json.String row.key);
                   ("field", Json.String row.field);
                   ("a", Json.String row.va);
                   ("b", Json.String row.vb);
                   ( "rel_pct",
                     match row.rel_pct with Some p -> Json.Float p | None -> Json.Null );
                   ("verdict", Json.String (verdict_name row.verdict));
                 ])
             r.rows) );
    ]
