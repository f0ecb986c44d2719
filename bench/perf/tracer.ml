(* Host-time spans recorded by the benchmark around its calls into
   the simulator's public functions.  Nothing inside lib/ is
   instrumented: a layer's cost is the time spent in the calls the
   benchmark makes into it, and its self time is that span's duration minus
   the part covered by child spans (e.g. [os.trap] spans, opened from a
   wrapper around the machine's kernel closure, are children of the
   [machine.run] span they interrupt).

   Per-name totals are kept for every span.  Individual spans (name,
   start, end, parent, and the id of the point, request or program they
   belong to) are kept in memory up to [cap] and written as a Chrome
   trace when the run ends; past the cap only the totals grow, so a long
   traced run stays bounded in memory. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type frame = { f_name : string; f_start : int; f_id : int; f_seq : int; mutable f_child : int }

type stat = { mutable self_ns : int; mutable total_ns : int; mutable calls : int }

type event = {
  e_name : string;
  e_start : int;
  e_stop : int;
  e_seq : int;
  e_parent : int; (* seq of the enclosing span; -1 at top level *)
  e_id : int; (* point / request / program id; -1 when none *)
}

type t = {
  origin : int;
  cap : int;
  mutable stack : frame list;
  mutable seq : int;
  stats : (string, stat) Hashtbl.t;
  mutable order : string list; (* span names, first-seen order reversed *)
  mutable events : event list; (* newest first *)
  mutable stored : int;
  mutable dropped : int;
}

let create ?(cap = 20_000) () =
  {
    origin = now_ns ();
    cap;
    stack = [];
    seq = 0;
    stats = Hashtbl.create 32;
    order = [];
    events = [];
    stored = 0;
    dropped = 0;
  }

let stat t name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None ->
      let s = { self_ns = 0; total_ns = 0; calls = 0 } in
      Hashtbl.replace t.stats name s;
      t.order <- name :: t.order;
      s

(* Run [f] inside a span.  A span without an [id] inherits its parent's,
   so a request's trap spans carry the request id. *)
let span t ?id name f =
  let id =
    match (id, t.stack) with
    | Some i, _ -> i
    | None, p :: _ -> p.f_id
    | None, [] -> -1
  in
  let fr = { f_name = name; f_start = now_ns (); f_id = id; f_seq = t.seq; f_child = 0 } in
  t.seq <- t.seq + 1;
  t.stack <- fr :: t.stack;
  let finish () =
    let stop = now_ns () in
    let dur = stop - fr.f_start in
    (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
    let parent =
      match t.stack with
      | p :: _ ->
          p.f_child <- p.f_child + dur;
          p.f_seq
      | [] -> -1
    in
    let s = stat t name in
    s.self_ns <- s.self_ns + dur - fr.f_child;
    s.total_ns <- s.total_ns + dur;
    s.calls <- s.calls + 1;
    if t.stored < t.cap then begin
      t.events <-
        { e_name = name; e_start = fr.f_start; e_stop = stop; e_seq = fr.f_seq; e_parent = parent; e_id = id }
        :: t.events;
      t.stored <- t.stored + 1
    end
    else t.dropped <- t.dropped + 1
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Optional-tracer form used by code shared between the traced and the
   untraced passes. *)
let maybe tr ?id name f = match tr with Some t -> span t ?id name f | None -> f ()

let self_ns t name = match Hashtbl.find_opt t.stats name with Some s -> s.self_ns | None -> 0

(* Mean duration (ns) of the spans called [name]; 0 when there are none. *)
let mean_ns t name =
  match Hashtbl.find_opt t.stats name with
  | Some s when s.calls > 0 -> float_of_int s.total_ns /. float_of_int s.calls
  | _ -> 0.0

(* Per-name self-time table, largest first: (name, calls, self s, total s). *)
let table t =
  List.rev t.order
  |> List.map (fun name ->
         let s = Hashtbl.find t.stats name in
         (name, s.calls, float_of_int s.self_ns /. 1e9, float_of_int s.total_ns /. 1e9))
  |> List.stable_sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a)

let pp_table ppf t =
  let rows = table t in
  let all_self = List.fold_left (fun acc (_, _, s, _) -> acc +. s) 0.0 rows in
  Fmt.pf ppf "@[<v>%-24s %10s %10s %10s %7s@," "span" "calls" "self_s" "total_s" "self%";
  List.iter
    (fun (name, calls, self_s, total_s) ->
      Fmt.pf ppf "%-24s %10d %10.3f %10.3f %6.1f%%@," name calls self_s total_s
        (if all_self > 0.0 then 100.0 *. self_s /. all_self else 0.0))
    rows;
  Fmt.pf ppf "(%d spans stored, %d past the cap counted in totals only)@]" t.stored t.dropped

(* Chrome trace-event JSON (loads in Perfetto): one complete ("X") event
   per stored span on a single track, so nesting shows the call tree. *)
let write_chrome t path =
  let us ns = Obs.Json.Float (float_of_int ns /. 1e3) in
  let event e =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String e.e_name);
        ("ph", Obs.Json.String "X");
        ("pid", Obs.Json.Int 1L);
        ("tid", Obs.Json.Int 1L);
        ("ts", us (e.e_start - t.origin));
        ("dur", us (e.e_stop - e.e_start));
        ( "args",
          Obs.Json.Obj
            [
              ("id", Obs.Json.Int (Int64.of_int e.e_id));
              ("seq", Obs.Json.Int (Int64.of_int e.e_seq));
              ("parent", Obs.Json.Int (Int64.of_int e.e_parent));
            ] );
      ]
  in
  let by_start =
    List.stable_sort
      (fun a b -> if a.e_start <> b.e_start then compare a.e_start b.e_start else compare a.e_seq b.e_seq)
      t.events
  in
  let meta =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String "process_name");
        ("ph", Obs.Json.String "M");
        ("pid", Obs.Json.Int 1L);
        ("args", Obs.Json.Obj [ ("name", Obs.Json.String "perf.exe (host time)") ]);
      ]
  in
  Obs.Trace.write_chrome path (meta :: List.map event by_start)
