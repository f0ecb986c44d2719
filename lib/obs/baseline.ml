(* Loading `BENCH_obs.json`-schema files back into structured form: the
   read half of the differential regression harness.  A baseline is a
   set of benchmark runs keyed by bench/mode/param, each carrying its
   wall time, simulated MIPS, counter file, and span aggregates; [Diff]
   compares two of them.  Accepts cheri-obs-bench/5 (Export.summary) and
   cheri-obs-trace/1 (Serve.Sweep.trace_obs_json), which share the file
   shape; every other schema tag is refused.  The simulator is
   deterministic, so a loaded baseline is an exact architectural oracle,
   not just a dashboard. *)

type entry = {
  bench : string;
  mode : string;
  param : int;
  wall_s : float;
  sim_mips : float; (* 0.0 = unmeasured *)
  counters : (string * int64) list; (* schema order preserved *)
  spans : (string * (string * int64) list) list;
}

type t = {
  schema : string;
  interp_instr_per_s : float;
  entries : entry list;
}

(* The trace export's spans are latency-histogram field sets, which the
   arbitrary-integer-field span decoder below already handles. *)
let supported_schemas = [ Export.schema_version; Export.schema_trace ]

(* "bench/mode/param": the identity of a run across baseline files. *)
let key e = Printf.sprintf "%s/%s/%d" e.bench e.mode e.param
let find t k = List.find_opt (fun e -> key e = k) t.entries

(* --- decoding -------------------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field_ctx ctx name = if ctx = "" then name else ctx ^ "." ^ name

let require ctx name conv json =
  match Json.member name json with
  | None -> Error (Printf.sprintf "missing field %S" (field_ctx ctx name))
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" (field_ctx ctx name)))

let int_fields ctx json =
  match json with
  | Json.Obj fields ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (name, Json.Int v) :: rest -> go ((name, v) :: acc) rest
        | (name, _) :: _ ->
            Error (Printf.sprintf "field %S is not an integer" (field_ctx ctx name))
      in
      go [] fields
  | _ -> Error (Printf.sprintf "%S is not an object" ctx)

let entry_of_json i json =
  let ctx = Printf.sprintf "benchmarks[%d]" i in
  let* bench = require ctx "bench" Json.to_string_opt json in
  let* mode = require ctx "mode" Json.to_string_opt json in
  let* param = require ctx "param" Json.to_int_opt json in
  let* wall_s = require ctx "wall_s" Json.to_float_opt json in
  let* sim_mips = require ctx "sim_mips" Json.to_float_opt json in
  let* counters_json = require ctx "counters" (fun v -> Some v) json in
  let* counters = int_fields (field_ctx ctx "counters") counters_json in
  let* spans =
    match Json.member "spans" json with
    | None | Some Json.Null -> Ok []
    | Some (Json.Obj span_fields) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (name, span_json) :: rest ->
              let* fields = int_fields (field_ctx ctx ("spans." ^ name)) span_json in
              go ((name, fields) :: acc) rest
        in
        go [] span_fields
    | Some _ -> Error (Printf.sprintf "field %S is not an object" (field_ctx ctx "spans"))
  in
  Ok { bench; mode; param = Int64.to_int param; wall_s; sim_mips; counters; spans }

let of_json json =
  let* schema = require "" "schema" Json.to_string_opt json in
  if not (List.mem schema supported_schemas) then
    Error
      (Printf.sprintf "unsupported schema %S (expected %s)" schema
         (String.concat " or " supported_schemas))
  else
    let* interp_instr_per_s = require "" "interp_instr_per_s" Json.to_float_opt json in
    let* benchmarks = require "" "benchmarks" Json.to_list_opt json in
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | b :: rest ->
          let* e = entry_of_json i b in
          go (i + 1) (e :: acc) rest
    in
    let* entries = go 0 [] benchmarks in
    (* Duplicate keys would make diffs ambiguous; reject them here. *)
    let rec dup = function
      | [] -> None
      | e :: rest -> if List.exists (fun e' -> key e' = key e) rest then Some (key e) else dup rest
    in
    match dup entries with
    | Some k -> Error (Printf.sprintf "duplicate benchmark entry %S" k)
    | None -> Ok { schema; interp_instr_per_s; entries }

let of_string s =
  let* json = Json.of_string s in
  of_json json

let load path =
  match Json.of_file path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok json -> (
      match of_json json with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok t -> Ok t)

(* A live run, in loaded-baseline form: what `bench regress` diffs
   against a committed file without a serialization round trip.  Uses
   [Export.counter_fields] so the key set matches what [Export] writes. *)
let of_entries (entries : Export.entry list) =
  {
    schema = Export.schema_version;
    interp_instr_per_s = Export.interp_instr_per_s entries;
    entries =
      List.map
        (fun (e : Export.entry) ->
          {
            bench = e.Export.bench;
            mode = e.Export.mode;
            param = e.Export.param;
            wall_s = e.Export.wall_s;
            sim_mips = Export.sim_mips e;
            counters = Export.counter_fields e.Export.counters;
            spans =
              List.map
                (fun (name, c) ->
                  ( name,
                    [
                      ("instret", Counters.get c Counters.instret);
                      ("cycles", Counters.get c Counters.cycles);
                    ] ))
                e.Export.spans;
          })
        entries;
  }
