(* Olden em3d: electromagnetic wave propagation on a bipartite graph of E
   and H field nodes.  Each node holds a value and a list of dependencies
   (pointers into the other partition) with coefficients; each timestep
   updates every node from its dependencies.  Values are 16.16 fixed-point
   (our port avoids floating point; DESIGN.md). *)

open Workload

(* node: { value; next; deps array ptr; coeffs array ptr } *)
let node_layout = [| Event.Scalar 8; Event.Ptr; Event.Ptr; Event.Ptr |]
let f_value = 0
let f_next = 1
let f_deps = 2
let f_coeffs = 3

let fix_mul a b = Int64.shift_right (Int64.mul a b) 16

let make_list_layout degree = Array.make degree Event.Ptr
let make_coeff_layout degree = Array.make degree (Event.Scalar 8)

(* Build a bipartite graph: [n] E-nodes and [n] H-nodes, each depending on
   [degree] pseudo-random nodes of the other partition. *)
let build rt ~n ~degree =
  let mk_nodes () =
    Array.init n (fun _ ->
        let nd = Runtime.alloc rt node_layout in
        Runtime.write_int rt nd f_value (Int64.of_int (Runtime.random rt 65536));
        nd)
  in
  let e_nodes = mk_nodes () and h_nodes = mk_nodes () in
  let link nodes others =
    Array.iter
      (fun nd ->
        let deps = Runtime.alloc rt (make_list_layout degree) in
        let coeffs = Runtime.alloc rt (make_coeff_layout degree) in
        for i = 0 to degree - 1 do
          Runtime.write_ptr rt deps i (Some others.(Runtime.random rt n));
          (* coefficients in (0, 0.5) fixed-point *)
          Runtime.write_int rt coeffs i (Int64.of_int (Runtime.random rt 32768))
        done;
        Runtime.write_ptr rt nd f_deps (Some deps);
        Runtime.write_ptr rt nd f_coeffs (Some coeffs))
      nodes
  in
  link e_nodes h_nodes;
  link h_nodes e_nodes;
  (* Chain each partition into a list, as the Olden code walks lists. *)
  let chain nodes =
    Array.iteri
      (fun i nd -> if i + 1 < n then Runtime.write_ptr rt nd f_next (Some nodes.(i + 1)))
      nodes
  in
  chain e_nodes;
  chain h_nodes;
  (e_nodes.(0), h_nodes.(0))

let compute_nodes rt ~degree first =
  let rec walk = function
    | None -> ()
    | Some nd ->
        let deps = Option.get (Runtime.read_ptr rt nd f_deps) in
        let coeffs = Option.get (Runtime.read_ptr rt nd f_coeffs) in
        let v = ref (Runtime.read_int rt nd f_value) in
        for i = 0 to degree - 1 do
          let dep = Option.get (Runtime.read_ptr rt deps i) in
          let c = Runtime.read_int rt coeffs i in
          v := Int64.sub !v (fix_mul c (Runtime.read_int rt dep f_value));
          Runtime.compute rt 3
        done;
        Runtime.write_int rt nd f_value !v;
        walk (Runtime.read_ptr rt nd f_next)
  in
  walk (Some first)

(* [run rt ~n ~degree ~iters] returns the sum of E-node values after
   [iters] alternating E/H update sweeps. *)
let run rt ?(degree = 4) ?(iters = 4) ~n () =
  let e0, h0 = build rt ~n ~degree in
  for _ = 1 to iters do
    compute_nodes rt ~degree e0;
    compute_nodes rt ~degree h0
  done;
  let rec sum acc = function
    | None -> acc
    | Some nd -> sum (Int64.add acc (Runtime.read_int rt nd f_value)) (Runtime.read_ptr rt nd f_next)
  in
  Int64.logand (sum 0L (Some e0)) 0xFFFF_FFFF_FFFFL
