(* Seeded campaigns: the checkpoint format and the one driver that runs
   every campaign over it — the fault-injection campaign
   ([Campaign], `cheri_fault`) and the instruction and kernel fuzz
   campaigns (`cheri_fuzz`).

   A campaign is N seeds, each a pure function of its index.  The driver
   owns everything around the per-seed work: the fixed chunk grid, the
   fan-out across domains, the in-order merge, checkpoint saves, resume,
   and the run limits.  A campaign supplies a kind, a config
   fingerprint, its outcome keys, its seed count, and a function that
   runs one chunk of seeds and aggregates it into a [shard].

   A checkpoint deliberately stores no per-seed records: every seed is
   deterministic, so the cursor plus the running aggregates reconstruct
   the campaign exactly.  Resuming continues at [next] with the saved
   aggregates folded in, which makes a resumed campaign's final report
   byte-identical to an uninterrupted one — provided the config matches,
   which [fingerprint] enforces (resuming a checkpoint written by a
   different campaign is a refusal, not a silent restart).

   Schema (one JSON object per file):

     { "schema": "cheri-campaign-checkpoint/1",
       "kind": "fault" | "fuzz",
       "fingerprint": <config digest string>,
       "total": <seeds in the whole campaign>,
       "next": <first seed index not yet accounted for>,
       "tallies": { <outcome>: <count>, ... },
       "counters": { "instret": <int64>, "wall_us": <int64> },
       "hists": [ <full-fidelity histogram>, ... ] }

   [wall_us] is the host time the campaign has spent so far (0 when wall
   clocks are off; absent in older files, where it reads as 0).
   Histograms round-trip at full fidelity (every non-empty bucket, not
   the elided rendering of [Obs.Hist.to_json]) so a resumed campaign's
   exported distributions match the uninterrupted run exactly. *)

type t = {
  kind : string; (* which campaign wrote it: "fault" | "fuzz" *)
  fingerprint : string; (* config digest; resume refuses a mismatch *)
  total : int; (* seeds in the whole campaign *)
  next : int; (* first seed index not yet accounted for *)
  tallies : (string * int64) list; (* outcome name -> count so far *)
  counters : (string * int64) list; (* aggregate counters (instret, ...) *)
  hists : Obs.Hist.t list;
}

let schema = "cheri-campaign-checkpoint/1"

(* --- serialization ------------------------------------------------------ *)

let hist_to_json (h : Obs.Hist.t) =
  let buckets =
    List.map
      (fun (k, n) ->
        Obs.Json.List [ Obs.Json.Int (Int64.of_int k); Obs.Json.Int (Int64.of_int n) ])
      (Obs.Hist.nonempty h)
  in
  Obs.Json.Obj
    [
      ("name", Obs.Json.String h.Obs.Hist.name);
      ("total", Obs.Json.Int (Int64.of_int h.Obs.Hist.total));
      ("sum", Obs.Json.Int h.Obs.Hist.sum);
      ("min", Obs.Json.Int h.Obs.Hist.vmin);
      ("max", Obs.Json.Int h.Obs.Hist.vmax);
      ("counts", Obs.Json.List buckets);
    ]

let assoc_to_json kvs = Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) kvs)

let to_json c =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema);
      ("kind", Obs.Json.String c.kind);
      ("fingerprint", Obs.Json.String c.fingerprint);
      ("total", Obs.Json.Int (Int64.of_int c.total));
      ("next", Obs.Json.Int (Int64.of_int c.next));
      ("tallies", assoc_to_json c.tallies);
      ("counters", assoc_to_json c.counters);
      ("hists", Obs.Json.List (List.map hist_to_json c.hists));
    ]

(* --- parsing ------------------------------------------------------------ *)

exception Malformed of string

let get key j =
  match Obs.Json.member key j with Some v -> v | None -> raise (Malformed ("missing " ^ key))

let get_string key j =
  match get key j with Obs.Json.String s -> s | _ -> raise (Malformed (key ^ ": expected string"))

let get_i64 key j =
  match get key j with Obs.Json.Int i -> i | _ -> raise (Malformed (key ^ ": expected integer"))

let get_int key j = Int64.to_int (get_i64 key j)

let get_assoc key j =
  match get key j with
  | Obs.Json.Obj fields ->
      List.map
        (fun (k, v) ->
          match v with
          | Obs.Json.Int i -> (k, i)
          | _ -> raise (Malformed (key ^ "." ^ k ^ ": expected integer")))
        fields
  | _ -> raise (Malformed (key ^ ": expected object"))

let hist_of_json j =
  let h = Obs.Hist.create ~name:(get_string "name" j) () in
  h.Obs.Hist.total <- get_int "total" j;
  h.Obs.Hist.sum <- get_i64 "sum" j;
  h.Obs.Hist.vmin <- get_i64 "min" j;
  h.Obs.Hist.vmax <- get_i64 "max" j;
  (match get "counts" j with
  | Obs.Json.List pairs ->
      List.iter
        (function
          | Obs.Json.List [ Obs.Json.Int k; Obs.Json.Int n ] ->
              let k = Int64.to_int k in
              if k < 0 || k >= Obs.Hist.buckets then raise (Malformed "hist bucket out of range");
              h.Obs.Hist.counts.(k) <- Int64.to_int n
          | _ -> raise (Malformed "hist counts: expected [bucket, count] pairs"))
        pairs
  | _ -> raise (Malformed "hist counts: expected list"));
  h

let of_json j =
  (match get_string "schema" j with
  | s when String.equal s schema -> ()
  | s -> raise (Malformed (Printf.sprintf "unsupported schema %S (want %S)" s schema)));
  {
    kind = get_string "kind" j;
    fingerprint = get_string "fingerprint" j;
    total = get_int "total" j;
    next = get_int "next" j;
    tallies = get_assoc "tallies" j;
    counters = get_assoc "counters" j;
    hists =
      (match get "hists" j with
      | Obs.Json.List hs -> List.map hist_of_json hs
      | _ -> raise (Malformed "hists: expected list"));
  }

(* --- file I/O ----------------------------------------------------------- *)

(* Write-then-rename: a campaign killed mid-checkpoint leaves the previous
   complete checkpoint in place, never a truncated file. *)
let save path c =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Obs.Json.to_string (to_json c));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let load path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_json (Obs.Json.parse s)
  with
  | c -> Ok c
  | exception Malformed msg -> Error (Printf.sprintf "%s: %s" path msg)
  | exception Obs.Json.Parse_error (msg, off) ->
      Error (Printf.sprintf "%s: JSON parse error at byte %d: %s" path off msg)
  | exception Sys_error msg -> Error msg

(* --- the campaign driver ------------------------------------------------- *)

(* Every refusal to run a campaign as asked: [resume] without a
   checkpoint path, or a checkpoint file that cannot be parsed, names
   another campaign, or holds a cursor that does not fit this one. *)
exception Refused of string

let refuse fmt = Printf.ksprintf (fun msg -> raise (Refused msg)) fmt

(* Seeds per chunk.  Every chunk builds fresh machines, so machine state
   never crosses a chunk boundary and the partition is invisible in the
   results; a lockstep machine pair costs ~1.7 ms against ~15 ms for a
   128-program chunk, so a finer grid would cost throughput. *)
let chunk_size = 128

(* The fixed chunk grid at absolute seed indices: the first chunk of a
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

(* One chunk's aggregates; merged, the whole campaign's. *)
type 'r shard = {
  counts : int64 array; (* outcome tallies, indexed per the campaign's keys *)
  retired : int64; (* retired instructions *)
  histograms : Obs.Hist.t list; (* in the order of the campaign's [hists] *)
  failures : (int64 * string) list; (* failing seeds with reasons, seed order *)
  records : 'r list; (* per-seed records, seed order *)
}

(* Failing seeds kept as examples; the tallies count every one. *)
let max_failures = 32

type 'r finished = {
  upto : int; (* the cursor: seeds [0, upto) are accounted for *)
  merged : 'r shard;
      (* tallies, [retired] and histograms cover the whole campaign, a
         resumed checkpoint included; [failures] (capped at
         [max_failures]) and [records] cover only the seeds this call ran *)
  wall_s : float; (* host time, accumulated across resumes; 0.0 when wall is off *)
}

let rec split_at n = function
  | x :: tl when n > 0 ->
      let a, b = split_at (n - 1) tl in
      (x :: a, b)
  | xs -> ([], xs)

(* Run the [seeds]-seed campaign [kind]/[fingerprint]: [chunk (lo, len)]
   runs seeds [lo, lo + len) (absolute indices) into a shard whose
   [counts] follow [keys] and whose histograms pair with [hists], the
   campaign's (empty) accumulators.  Batches of [jobs] chunks fan out
   over [Exp.Pool.map] and merge in seed order, so the result does not
   depend on [jobs].

   [path] is saved after every batch and once at the end.  With
   [resume], a missing [path] starts at seed 0; an existing one must
   parse, match [kind] and [fingerprint], hold a cursor in [0, seeds]
   with [total = seeds], and carry one histogram per accumulator, or the
   run is [Refused]; its aggregates are folded in and the run continues
   at its cursor.  [stop_after n] runs at most [n] seeds this call (the
   deterministic stand-in for an interruption). *)
let run ?(jobs = 1) ?path ?(resume = false) ?stop_after ?(wall = true) ~kind ~fingerprint ~keys
    ~hists ~seeds chunk =
  let counts = Array.make (Array.length keys) 0L in
  let retired = ref 0L and resumed_us = ref 0L in
  let start =
    match (resume, path) with
    | false, _ -> 0
    | true, None -> refuse "--resume requires --checkpoint FILE"
    | true, Some p when not (Sys.file_exists p) -> 0
    | true, Some p ->
        let c = match load p with Ok c -> c | Error msg -> refuse "cannot resume: %s" msg in
        if c.kind <> kind then refuse "%s: checkpoint kind %S is not a %s campaign" p c.kind kind;
        if c.fingerprint <> fingerprint then
          refuse "%s: checkpoint is for a different campaign\n  have %s\n  want %s" p c.fingerprint
            fingerprint;
        if c.total <> seeds || c.next < 0 || c.next > c.total then
          refuse "%s: cursor %d of %d does not fit a %d-seed campaign" p c.next c.total seeds;
        if List.length c.hists <> List.length hists then
          refuse "%s: %d histograms, expected %d" p (List.length c.hists) (List.length hists);
        Array.iteri
          (fun i key -> Option.iter (fun v -> counts.(i) <- v) (List.assoc_opt key c.tallies))
          keys;
        let counter name = Option.value ~default:0L (List.assoc_opt name c.counters) in
        retired := counter "instret";
        resumed_us := counter "wall_us";
        List.iter2 Obs.Hist.merge hists c.hists;
        c.next
  in
  let stop = match stop_after with Some n -> min seeds (start + n) | None -> seeds in
  let t0 = if wall then Unix.gettimeofday () else 0.0 in
  let wall_us () =
    if wall then Int64.add !resumed_us (Int64.of_float ((Unix.gettimeofday () -. t0) *. 1e6))
    else !resumed_us
  in
  let upto = ref start and failures = ref [] and records = ref [] in
  let checkpoint () =
    Option.iter
      (fun p ->
        save p
          {
            kind;
            fingerprint;
            total = seeds;
            next = !upto;
            tallies = Array.to_list (Array.mapi (fun i key -> (key, counts.(i))) keys);
            counters = [ ("instret", !retired); ("wall_us", wall_us ()) ];
            hists;
          })
      path
  in
  let merge (_, len) s =
    Array.iteri (fun i v -> counts.(i) <- Int64.add counts.(i) v) s.counts;
    retired := Int64.add !retired s.retired;
    List.iter2 Obs.Hist.merge hists s.histograms;
    List.iter
      (fun f -> if List.length !failures < max_failures then failures := f :: !failures)
      s.failures;
    records := List.rev_append s.records !records;
    upto := !upto + len
  in
  let rec go pending =
    if pending <> [] then begin
      let batch, rest = split_at (max 1 jobs) pending in
      List.iter2 merge batch (Exp.Pool.map ~jobs chunk batch);
      (* The save after the last batch is the final one below. *)
      if rest <> [] then checkpoint ();
      go rest
    end
  in
  go (chunks_between start stop);
  checkpoint ();
  {
    upto = !upto;
    merged =
      {
        counts;
        retired = !retired;
        histograms = hists;
        failures = List.rev !failures;
        records = List.rev !records;
      };
    wall_s = (if wall then Int64.to_float (wall_us ()) /. 1e6 else 0.0);
  }
