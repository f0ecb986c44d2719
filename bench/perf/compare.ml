(* `perf.exe compare BASE_DIR CHANGE_DIR`: judge a change against its
   parent from saved benchmark runs (one run's standard output per file;
   pairs.sh writes them).  The i-th run of a workload in BASE_DIR is
   paired with the i-th in CHANGE_DIR.  For each (workload, end-to-end
   metric) it prints each side's median and quartiles, the change's win
   fraction over the pairs (ties count for neither side), and a verdict
   against the metric's bound in BENCHMARK.json:

   - improved: the change wins at least 9/10 of the decided pairs and
     the medians differ by more than the parent's own quartile spread;
   - regressed: the change's median is worse by more than the bound;
   - unresolved: the parent's spread is wider than the bound, unless
     every change run reads better than every parent run;
   - unchanged: otherwise.

   Runs of the same workload and seed must also agree exactly on
   [sim_digest] (the simulated machine's counters) on both sides; the
   exact allocation count [machine.minor_words_per_insn] is printed per
   side.  Exit status 1 on any regression, incorrect run or digest
   mismatch. *)

type run = {
  workload : string;
  seed : string;
  correct : bool;
  metrics : (string * float) list;
  digest : string;
  words : string; (* machine.minor_words_per_insn, as printed *)
}

type metric = { name : string; better_higher : bool; bound : float }

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
      go [])

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perf compare: " ^ m); exit 2) fmt

let tokens l = List.filter (fun s -> s <> "") (String.split_on_char ' ' l)

let load_run path =
  let lines = read_lines path in
  let field key =
    match List.find_map (fun l -> match tokens l with k :: v :: _ when k = key -> Some v | _ -> None) lines with
    | Some v -> v
    | None -> fail "%s: no %S line" path key
  in
  let json =
    match List.rev (List.filter (fun l -> String.length l > 0 && l.[0] = '{') lines) with
    | l :: _ -> (
        match Obs.Json.of_string l with Ok j -> j | Error e -> fail "%s: %s" path e)
    | [] -> fail "%s: no result line" path
  in
  let metrics =
    match Obs.Json.member "metrics" json with
    | Some (Obs.Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            Option.map (fun f -> (name, f)) (Option.bind (Obs.Json.member "value" v) Obs.Json.to_float_opt))
          fields
    | _ -> fail "%s: result line has no metrics" path
  in
  {
    workload = field "workload";
    seed = field "seed";
    correct = Obs.Json.member "correct" json = Some (Obs.Json.Bool true);
    metrics;
    digest = field "sim_digest";
    words = field "machine.minor_words_per_insn";
  }

let load_dir dir =
  let files = Sys.readdir dir in
  Array.sort compare files;
  Array.to_list files
  |> List.map (Filename.concat dir)
  |> List.filter (fun p -> not (Sys.is_directory p))
  |> List.map load_run

(* The end-to-end metrics and their bounds, from the BENCHMARK.json in
   the current directory. *)
let load_spec () =
  let path = "BENCHMARK.json" in
  let json = match Obs.Json.of_file path with Ok j -> j | Error e -> fail "%s" e in
  match Option.bind (Obs.Json.member "end_to_end" json) Obs.Json.to_list_opt with
  | Some items ->
      List.map
        (fun m ->
          let str k = Option.bind (Obs.Json.member k m) Obs.Json.to_string_opt in
          match (str "name", str "better", Option.bind (Obs.Json.member "bound" m) Obs.Json.to_float_opt) with
          | Some name, Some better, Some bound -> { name; better_higher = better = "higher"; bound }
          | _ -> fail "%s: malformed end_to_end entry" path)
        items
  | None -> fail "%s: no end_to_end list" path

(* How much worse [c] is than [b], as a share of [b] (negative = better). *)
let worse m ~b ~c = (if m.better_higher then b -. c else c -. b) /. Float.abs b

let verdict m base change =
  let bq1, bmed, bq3 = Stats.quartiles base in
  let _, cmed, _ = Stats.quartiles change in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base change in
  let better ~b ~c = if m.better_higher then c > b else c < b in
  let wins = List.length (List.filter (fun (b, c) -> better ~b ~c) pairs) in
  let losses = List.length (List.filter (fun (b, c) -> better ~b:c ~c:b) pairs) in
  let decided = wins + losses in
  let win_frac = if decided = 0 then 0.0 else float_of_int wins /. float_of_int decided in
  let all_better = List.for_all (fun c -> List.for_all (fun b -> better ~b ~c) base) change in
  let v =
    if decided > 0 && win_frac >= 0.9 && better ~b:bmed ~c:cmed && Float.abs (cmed -. bmed) > bq3 -. bq1
    then "improved"
    else if worse m ~b:bmed ~c:cmed > m.bound then "regressed"
    else if Stats.rel_spread base > m.bound && not all_better then "unresolved"
    else "unchanged"
  in
  (v, win_frac, decided)

let run base_dir change_dir =
  let metrics = load_spec () in
  let base = load_dir base_dir and change = load_dir change_dir in
  let workloads =
    List.fold_left (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ]) [] base
  in
  let bad = ref false in
  let summary = ref [] in
  List.iter
    (fun w ->
      let b = List.filter (fun r -> r.workload = w) base and c = List.filter (fun r -> r.workload = w) change in
      Printf.printf "%s: %d base runs, %d change runs\n" w (List.length b) (List.length c);
      Printf.printf "  %-14s %28s %28s %8s %9s  %s\n" "metric" "base median [q1, q3]" "change median [q1, q3]"
        "worse%" "wins" "verdict";
      let verdicts =
        List.map
          (fun m ->
            let values rs = List.filter_map (fun r -> List.assoc_opt m.name r.metrics) rs in
            let bv = values b and cv = values c in
            if bv = [] || cv = [] then (m.name, "missing")
            else begin
              let v, win_frac, decided = verdict m bv cv in
              let q1, med, q3 = Stats.quartiles bv and q1', med', q3' = Stats.quartiles cv in
              Printf.printf "  %-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.2f%% %4.0f%%/%-3d  %s (bound %.0f%%)\n"
                m.name med q1 q3 med' q1' q3' (100.0 *. worse m ~b:med ~c:med') (100.0 *. win_frac) decided v
                (100.0 *. m.bound);
              if v = "regressed" then bad := true;
              (m.name, v)
            end)
          metrics
      in
      let incorrect = List.filter (fun r -> not r.correct) (b @ c) in
      if incorrect <> [] then begin
        bad := true;
        Printf.printf "  %d run(s) reported correct=false\n" (List.length incorrect)
      end;
      let seeds = List.sort_uniq compare (List.map (fun r -> r.seed) (b @ c)) in
      let mismatched =
        List.filter
          (fun s ->
            match List.sort_uniq compare (List.filter_map (fun r -> if r.seed = s then Some r.digest else None) (b @ c)) with
            | [ _ ] -> false
            | _ -> true)
          seeds
      in
      let uniq_words rs = String.concat " " (List.sort_uniq compare (List.map (fun r -> r.words) rs)) in
      Printf.printf "  machine.minor_words_per_insn: base %s | change %s\n" (uniq_words b) (uniq_words c);
      if mismatched = [] then Printf.printf "  sim_digest identical per seed (%d seeds)\n" (List.length seeds)
      else begin
        bad := true;
        Printf.printf "  sim_digest DIFFERS for seed(s) %s\n" (String.concat ", " mismatched)
      end;
      summary := (w, verdicts) :: !summary)
    workloads;
  print_endline "\nsummary";
  List.iter
    (fun (w, vs) ->
      let overall =
        List.fold_left
          (fun acc (_, v) ->
            let rank = function "regressed" | "missing" -> 3 | "unresolved" -> 2 | "improved" -> 1 | _ -> 0 in
            if rank v > rank acc then v else acc)
          "unchanged" vs
      in
      Printf.printf "  %-18s %s -> %s\n" w
        (String.concat " " (List.map (fun (n, v) -> n ^ "=" ^ v) vs))
        overall)
    (List.rev !summary);
  if !bad then exit 1
