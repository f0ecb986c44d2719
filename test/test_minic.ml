(* Tests for the minic compiler: language semantics, the three pointer
   lowerings, mode-dependent layout, safety behaviour (the CHERI trap /
   software check / silent-corruption triptych), and agreement of the
   compiled Olden benchmarks with the native reference implementations. *)

let all_modes =
  [ Minic.Layout.Legacy; Minic.Layout.Cheri; Minic.Layout.Cheri128; Minic.Layout.Softcheck ]

let run_mode ?fault_handler mode src =
  let asm = Minic.Driver.compile ~mode src in
  let m = Exp.Bench_run.machine_for mode in
  let k = Os.Kernel.attach m in
  (match fault_handler with Some f -> Os.Kernel.set_fault_handler k f | None -> ());
  let r, out = Os.Kernel.run_program ~max_insns:100_000_000L k asm in
  (Outcome.exited r, String.split_on_char '\n' out |> List.filter (fun s -> String.trim s <> ""))

let check_all_modes what src expected =
  List.iter
    (fun mode ->
      let code, out = run_mode mode src in
      Alcotest.(check int) (what ^ " exit " ^ Minic.Layout.mode_name mode) 0 code;
      Alcotest.(check (list string))
        (what ^ " output " ^ Minic.Layout.mode_name mode)
        expected out)
    all_modes

(* --- language semantics --------------------------------------------------- *)

let test_arith_and_control () =
  check_all_modes "arith"
    {|
int main(void) {
  int a = 6 * 7;
  int b = 100 / 7;       // 14
  int c = 100 % 7;       // 2
  int d = (1 << 10) >> 3; // 128
  int e = 0 - 5;
  print_int(a); print_int(b); print_int(c); print_int(d); print_int(e);
  if (a > 40 && b < 20) print_int(1); else print_int(0);
  if (a < 40 || c == 2) print_int(1); else print_int(0);
  int i = 0;
  int total = 0;
  for (i = 1; i <= 10; i = i + 1) total = total + i;
  print_int(total);
  return 0;
}
|}
    [ "42"; "14"; "2"; "128"; "-5"; "1"; "1"; "55" ]

let test_functions_recursion () =
  check_all_modes "fib"
    {|
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
int main(void) { print_int(fib(15)); return 0; }
|}
    [ "610" ]

let test_structs_and_pointers () =
  check_all_modes "list"
    {|
struct cell { int v; struct cell *next; };
int main(void) {
  struct cell *head = NULL;
  int i = 0;
  while (i < 10) {
    struct cell *c = (struct cell*) malloc(sizeof(struct cell));
    c->v = i * i;
    c->next = head;
    head = c;
    i = i + 1;
  }
  int total = 0;
  while (head != NULL) {
    total = total + head->v;
    head = head->next;
  }
  print_int(total);   // 285
  return 0;
}
|}
    [ "285" ]

let test_arrays () =
  check_all_modes "arrays"
    {|
int main(void) {
  int *a = (int*) malloc(32 * sizeof(int));
  int i = 0;
  while (i < 32) { a[i] = i; i = i + 1; }
  int total = 0;
  i = 0;
  while (i < 32) { total = total + a[i]; i = i + 1; }
  print_int(total);   // 496
  return 0;
}
|}
    [ "496" ]

let test_ptr_to_ptr () =
  check_all_modes "ptr-to-ptr"
    {|
struct box { int v; };
int main(void) {
  struct box **table = (struct box**) malloc(8 * sizeof(struct box*));
  int i = 0;
  while (i < 8) {
    struct box *b = (struct box*) malloc(sizeof(struct box));
    b->v = i * 3;
    table[i] = b;
    i = i + 1;
  }
  int total = 0;
  i = 0;
  while (i < 8) { total = total + table[i]->v; i = i + 1; }
  print_int(total);   // 84
  return 0;
}
|}
    [ "84" ]

let test_globals () =
  check_all_modes "globals"
    {|
int counter;
struct cell { int v; struct cell *next; };
struct cell *g_head;
void bump(void) { counter = counter + 1; }
int main(void) {
  bump(); bump(); bump();
  g_head = (struct cell*) malloc(sizeof(struct cell));
  g_head->v = 41;
  print_int(counter + g_head->v);
  return 0;
}
|}
    [ "44" ]

let test_sizeof_per_mode () =
  let src =
    {|
struct pair { struct pair *a; struct pair *b; int v; };
int main(void) { print_int(sizeof(struct pair)); print_int(sizeof(int*)); return 0; }
|}
  in
  let expect mode =
    match mode with
    | Minic.Layout.Legacy -> [ "24"; "8" ] (* 8+8+8 *)
    | Minic.Layout.Cheri -> [ "96"; "32" ] (* 32+32+8 padded to 32 *)
    | Minic.Layout.Cheri128 -> [ "48"; "16" ] (* 16+16+8 padded to 16 *)
    | Minic.Layout.Softcheck -> [ "56"; "24" ] (* 24+24+8 *)
  in
  List.iter
    (fun mode ->
      let _, out = run_mode mode src in
      Alcotest.(check (list string)) ("sizeof " ^ Minic.Layout.mode_name mode) (expect mode) out)
    all_modes

let test_random_deterministic () =
  let src =
    {|
int main(void) { print_int(random(1000)); print_int(random(1000)); return 0; }
|}
  in
  let _, a = run_mode Minic.Layout.Legacy src in
  let _, b = run_mode Minic.Layout.Legacy src in
  Alcotest.(check (list string)) "same stream" a b;
  Alcotest.(check int) "two numbers" 2 (List.length a)

(* --- the safety triptych ---------------------------------------------------- *)

(* A classic off-by-one heap overflow: writes one element past an 8-cell
   array, corrupting the adjacent allocation. *)
let overflow_src =
  {|
int main(void) {
  int *a = (int*) malloc(8 * sizeof(int));
  int *b = (int*) malloc(8 * sizeof(int));
  b[0] = 1234;
  int i = 0;
  while (i <= 8) {        // off by one!
    a[i] = 9999;
    i = i + 1;
  }
  print_int(b[0]);
  return 0;
}
|}

let test_overflow_legacy_corrupts () =
  let code, out = run_mode Minic.Layout.Legacy overflow_src in
  Alcotest.(check int) "runs to completion" 0 code;
  (* The overflow silently lands on b[0] (allocations are adjacent, past
     a's 32-byte-rounded block). *)
  Alcotest.(check (list string)) "silent corruption" [ "9999" ] out

let test_overflow_cheri_traps () =
  let trapped = ref None in
  let handler _k (fault : Os.Kernel.fault) =
    trapped := Some fault.Os.Kernel.capcause;
    Machine.Halt 139
  in
  let code, _ = run_mode ~fault_handler:handler Minic.Layout.Cheri overflow_src in
  Alcotest.(check int) "trapped" 139 code;
  match !trapped with
  | Some Cap.Cause.Length_violation -> ()
  | Some c -> Alcotest.failf "wrong cause %s" (Cap.Cause.to_string c)
  | None -> Alcotest.fail "no CP2 exception"

let test_overflow_softcheck_detects () =
  let code, _ = run_mode Minic.Layout.Softcheck overflow_src in
  Alcotest.(check int) "bounds-check exit" 97 code

let test_underflow_cheri_traps () =
  let src =
    {|
int main(void) {
  int *a = (int*) malloc(8 * sizeof(int));
  int i = 0 - 1;
  print_int(a[i]);       // below the allocation
  return 0;
}
|}
  in
  let code, _ =
    run_mode ~fault_handler:(fun _ _ -> Machine.Halt 139) Minic.Layout.Cheri src
  in
  Alcotest.(check int) "underflow trapped" 139 code;
  let code, _ = run_mode Minic.Layout.Softcheck src in
  Alcotest.(check int) "underflow detected in software" 97 code

(* --- compiled Olden benchmarks vs native references --------------------------- *)

let bench_output name param mode =
  let src = List.assoc name Olden.Minic_src.all in
  let src = Olden.Minic_src.instantiate src ~param in
  run_mode mode src

let test_olden_cross_mode_agreement () =
  List.iter
    (fun (name, param) ->
      let outs = List.map (fun m -> bench_output name param m) all_modes in
      match outs with
      | [ (0, a); (0, b); (0, b128); (0, c) ] ->
          Alcotest.(check (list string)) (name ^ " legacy=cheri") a b;
          Alcotest.(check (list string)) (name ^ " legacy=cheri128") a b128;
          Alcotest.(check (list string)) (name ^ " legacy=softcheck") a c
      | _ -> Alcotest.failf "%s: non-zero exit" name)
    [ ("treeadd", 8); ("bisort", 6); ("perimeter", 5); ("mst", 32); ("em3d", 40); ("health", 2) ]

let test_minic_treeadd_value () =
  let _, out = bench_output "treeadd" 10 Minic.Layout.Legacy in
  Alcotest.(check (list string)) "2^10 - 1" [ "1023" ] out

let test_minic_mst_matches_reference () =
  List.iter
    (fun n ->
      let _, out = bench_output "mst" n Minic.Layout.Legacy in
      Alcotest.(check (list string))
        (Printf.sprintf "mst %d" n)
        [ Int64.to_string (Olden.Mst.reference ~n ()) ]
        out)
    [ 16; 64 ]

let test_minic_perimeter_matches_reference () =
  List.iter
    (fun levels ->
      let _, out = bench_output "perimeter" levels Minic.Layout.Legacy in
      let expected = Olden.Perimeter.run (Workload.Runtime.create ()) ~levels in
      Alcotest.(check (list string))
        (Printf.sprintf "perimeter %d" levels)
        [ string_of_int expected ] out)
    [ 4; 6 ]

let test_minic_bisort_preserves_multiset () =
  List.iter
    (fun mode ->
      let code, out = bench_output "bisort" 7 mode in
      Alcotest.(check int) "exit" 0 code;
      match out with
      | [ diff; _sum ] -> Alcotest.(check string) "multiset preserved" "0" diff
      | _ -> Alcotest.fail "unexpected output shape")
    all_modes

(* --- Figure 4 / Figure 5 harness invariants ------------------------------------ *)

let test_fig4_shape () =
  (* At small parameters: both protection schemes cost something, software
     checking costs more than CHERI on every benchmark's computation
     phase or total. *)
  let rows = Exp.Fig4.run_benchmark "treeadd" in
  match rows with
  | [ legacy; soft; cheri ] ->
      Alcotest.(check string) "baseline first" "legacy"
        (Minic.Layout.mode_name legacy.Exp.Fig4.mode);
      Alcotest.(check (float 0.01)) "baseline zero" 0.0 legacy.Exp.Fig4.total_overhead_pct;
      Alcotest.(check bool) "cheri costs > 0" true (cheri.Exp.Fig4.total_overhead_pct > 0.0);
      Alcotest.(check bool) "software costs more than CHERI" true
        (soft.Exp.Fig4.total_overhead_pct > cheri.Exp.Fig4.total_overhead_pct)
  | _ -> Alcotest.fail "expected three rows"

let test_fig5_steps () =
  (* CHERI slowdown grows with working-set size (the Figure 5 staircase):
     compare a cache-resident heap against one past L2 capacity. *)
  let small = Exp.Fig5.run_point ~bench:"treeadd" ~param:7 in
  let large = Exp.Fig5.run_point ~bench:"treeadd" ~param:12 in
  Alcotest.(check bool) "heap grew" true (large.Exp.Fig5.heap_kb > small.Exp.Fig5.heap_kb);
  Alcotest.(check bool) "slowdown grows with working set" true
    (large.Exp.Fig5.slowdown_pct > small.Exp.Fig5.slowdown_pct);
  Alcotest.(check bool) "cache misses explain it" true
    (large.Exp.Fig5.cheri_l1d_misses > large.Exp.Fig5.legacy_l1d_misses)

(* --- compiler error reporting ---------------------------------------------------- *)

let test_errors () =
  let fails src =
    match Minic.Driver.compile ~mode:Minic.Layout.Legacy src with
    | exception Minic.Driver.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing main" true (fails "int f(void) { return 0; }");
  Alcotest.(check bool) "unknown variable" true (fails "int main(void) { return x; }");
  Alcotest.(check bool) "unknown field" true
    (fails "struct s { int a; }; int main(void) { struct s *p = NULL; return p->b; }");
  Alcotest.(check bool) "parse error" true (fails "int main(void) { return 1 +; }");
  Alcotest.(check bool) "pointer subtraction rejected" true
    (fails
       "int main(void) { int *a = (int*) malloc(8); int *b = a; print_int(a - b); return 0; }")

let suites =
  [
    ( "minic-language",
      [
        Alcotest.test_case "arithmetic and control" `Quick test_arith_and_control;
        Alcotest.test_case "recursion" `Quick test_functions_recursion;
        Alcotest.test_case "structs and pointers" `Quick test_structs_and_pointers;
        Alcotest.test_case "arrays" `Quick test_arrays;
        Alcotest.test_case "pointer to pointer" `Quick test_ptr_to_ptr;
        Alcotest.test_case "globals" `Quick test_globals;
        Alcotest.test_case "sizeof per mode" `Quick test_sizeof_per_mode;
        Alcotest.test_case "deterministic random" `Quick test_random_deterministic;
        Alcotest.test_case "error reporting" `Quick test_errors;
      ] );
    ( "minic-safety",
      [
        Alcotest.test_case "legacy: silent corruption" `Quick test_overflow_legacy_corrupts;
        Alcotest.test_case "cheri: hardware trap" `Quick test_overflow_cheri_traps;
        Alcotest.test_case "softcheck: detected" `Quick test_overflow_softcheck_detects;
        Alcotest.test_case "underflow" `Quick test_underflow_cheri_traps;
      ] );
    ( "minic-olden",
      [
        Alcotest.test_case "cross-mode agreement" `Slow test_olden_cross_mode_agreement;
        Alcotest.test_case "treeadd value" `Quick test_minic_treeadd_value;
        Alcotest.test_case "mst vs reference" `Slow test_minic_mst_matches_reference;
        Alcotest.test_case "perimeter vs reference" `Slow test_minic_perimeter_matches_reference;
        Alcotest.test_case "bisort multiset" `Slow test_minic_bisort_preserves_multiset;
      ] );
    ( "fig4-fig5",
      [
        Alcotest.test_case "fig4 ranking" `Slow test_fig4_shape;
        Alcotest.test_case "fig5 staircase" `Slow test_fig5_steps;
      ] );
  ]

(* --- code generation regressions ---------------------------------------------- *)

(* Each of these programs is a minimal witness for a code-generation bug
   found (and fixed) during development; they run in every mode. *)

let test_regression_many_args () =
  (* $t4..$t7 are the o32 aliases of $a4..$a7: a call with >4 integer
     arguments must not let temporaries alias argument registers. *)
  check_all_modes "six-arg shuffle"
    {|
struct qt { struct qt *p; int v; };
struct qt *build(int x, int y, int size, int depth, struct qt *parent, int ct) {
  struct qt *n = (struct qt*) malloc(sizeof(struct qt));
  n->p = parent;
  n->v = x * 100000 + y * 10000 + size * 1000 + depth * 100 + ct;
  if (depth > 0) { n->p = build(x + 1, y + 1, size, depth - 1, n, ct + 1); }
  return n;
}
int main(void) {
  struct qt *r = build(1, 2, 3, 2, NULL, 4);
  print_int(r->v);          // 123204
  print_int(r->p->v);       // 233105
  print_int(r->p->p->v);    // 343006
  // the leaf's parent field is its builder's node: r->p
  if (r->p->p->p == r->p) print_int(1); else print_int(0);
  return 0;
}
|}
    [ "123204"; "233105"; "343006"; "1" ]

let test_regression_result_vs_restore () =
  (* The call result must be secured before saved live registers are
     restored: the callee's return register may be among them. *)
  check_all_modes "field assigned from recursive call"
    {|
struct node { struct node *left; int v; };
struct node *chain(int n) {
  struct node *c = (struct node*) malloc(sizeof(struct node));
  c->v = n;
  c->left = NULL;
  if (n > 0) { c->left = chain(n - 1); }
  return c;
}
int main(void) {
  struct node *top = chain(5);
  int sum = 0;
  while (top != NULL) { sum = sum * 10 + top->v; top = top->left; }
  print_int(sum);        // 543210
  return 0;
}
|}
    [ "543210" ]

let test_regression_fat_return_paths () =
  (* Fat-pointer returns flow through $v0/$v1/$t9 while $v1 is also an
     allocatable temporary: conditional returns through multiple paths
     must keep base/end intact (a wrong 'end' fires the bounds check). *)
  check_all_modes "conditional pointer returns"
    {|
struct qt { struct qt *parent; int color; int ct; };
struct qt *up(struct qt *n, int d) {
  struct qt *q;
  if (n->parent != NULL && d > 0) {
    q = up(n->parent, d - 1);
  } else {
    q = n->parent;
  }
  if (q != NULL && q->color == 2) {
    return q;
  }
  return q;
}
int main(void) {
  struct qt *a = (struct qt*) malloc(sizeof(struct qt));
  struct qt *b = (struct qt*) malloc(sizeof(struct qt));
  struct qt *c = (struct qt*) malloc(sizeof(struct qt));
  a->parent = NULL; a->color = 2; a->ct = 42;
  b->parent = a; b->color = 1; b->ct = 7;
  c->parent = b; c->color = 1; c->ct = 9;
  struct qt *r = up(c, 5);
  if (r == NULL) { print_int(0); } else { print_int(r->ct); }   // recursion tops out: NULL
  struct qt *s = up(b, 0);
  print_int(s->ct);                                             // b's parent a, color 2: 42
  return 0;
}
|}
    [ "0"; "42" ]

let test_regression_calls_in_expressions () =
  (* Values live across calls (both operands calls, nested calls as
     arguments) must survive via the save/restore protocol. *)
  check_all_modes "calls within expressions"
    {|
int f(int x) { return x * 2; }
int g(int x) { return x + 3; }
int h(int a, int b) { return a * 100 + b; }
int main(void) {
  print_int(f(5) + g(7));          // 20
  print_int(h(f(2), g(1)));        // 404
  print_int(f(g(f(1))));           // 10
  int acc = 1;
  acc = acc + f(acc) + g(acc);     // 1 + 2 + 4 = 7
  print_int(acc);
  return 0;
}
|}
    [ "20"; "404"; "10"; "7" ]

let test_regression_spill_alignment () =
  (* Deep expressions force spills around calls; frames and spill cells
     must stay 32-byte aligned for capability stores. *)
  check_all_modes "deep expression spills"
    {|
struct v { struct v *n; int x; };
int depth(struct v *p) { if (p == NULL) return 0; return 1 + depth(p->n); }
int main(void) {
  struct v *a = (struct v*) malloc(sizeof(struct v));
  struct v *b = (struct v*) malloc(sizeof(struct v));
  a->n = b; b->n = NULL; a->x = 3; b->x = 4;
  print_int(a->x * b->x + depth(a) * depth(b) + (a->x + b->x) * depth(a));  // 12+2+14=28
  return 0;
}
|}
    [ "28" ]

let regression_suite =
  ( "minic-regressions",
    [
      Alcotest.test_case "argument register aliasing" `Slow test_regression_many_args;
      Alcotest.test_case "result vs restore ordering" `Quick test_regression_result_vs_restore;
      Alcotest.test_case "fat return paths" `Quick test_regression_fat_return_paths;
      Alcotest.test_case "calls in expressions" `Quick test_regression_calls_in_expressions;
      Alcotest.test_case "spill alignment" `Quick test_regression_spill_alignment;
    ] )

let suites = suites @ [ regression_suite ]

(* --- differential testing ------------------------------------------------------ *)

(* Random integer expressions, compiled and executed on the machine in two
   modes, compared against a native OCaml evaluator mirroring the ISA's
   64-bit semantics (truncating division, 0 on divide-by-zero, 6-bit
   shift amounts). *)

type iexpr =
  | Lit of int64
  | Add2 of iexpr * iexpr
  | Sub2 of iexpr * iexpr
  | Mul2 of iexpr * iexpr
  | Div2 of iexpr * iexpr
  | Mod2 of iexpr * iexpr
  | And2 of iexpr * iexpr
  | Or2 of iexpr * iexpr
  | Xor2 of iexpr * iexpr
  | Shl2 of iexpr * iexpr
  | Shr2 of iexpr * iexpr
  | Lt2 of iexpr * iexpr
  | Eq2 of iexpr * iexpr

let rec eval_native = function
  | Lit v -> v
  | Add2 (a, b) -> Int64.add (eval_native a) (eval_native b)
  | Sub2 (a, b) -> Int64.sub (eval_native a) (eval_native b)
  | Mul2 (a, b) -> Int64.mul (eval_native a) (eval_native b)
  | Div2 (a, b) ->
      let d = eval_native b in
      if Int64.equal d 0L then 0L else Int64.div (eval_native a) d
  | Mod2 (a, b) ->
      let d = eval_native b in
      if Int64.equal d 0L then 0L else Int64.rem (eval_native a) d
  | And2 (a, b) -> Int64.logand (eval_native a) (eval_native b)
  | Or2 (a, b) -> Int64.logor (eval_native a) (eval_native b)
  | Xor2 (a, b) -> Int64.logxor (eval_native a) (eval_native b)
  | Shl2 (a, b) -> Int64.shift_left (eval_native a) (Int64.to_int (eval_native b) land 63)
  | Shr2 (a, b) -> Int64.shift_right (eval_native a) (Int64.to_int (eval_native b) land 63)
  | Lt2 (a, b) -> if Int64.compare (eval_native a) (eval_native b) < 0 then 1L else 0L
  | Eq2 (a, b) -> if Int64.equal (eval_native a) (eval_native b) then 1L else 0L

let rec render = function
  | Lit v ->
      (* minic literals are non-negative; negatives via subtraction *)
      if Int64.compare v 0L >= 0 then Int64.to_string v
      else Printf.sprintf "(0 - %Ld)" (Int64.neg v)
  | Add2 (a, b) -> Printf.sprintf "(%s + %s)" (render a) (render b)
  | Sub2 (a, b) -> Printf.sprintf "(%s - %s)" (render a) (render b)
  | Mul2 (a, b) -> Printf.sprintf "(%s * %s)" (render a) (render b)
  | Div2 (a, b) -> Printf.sprintf "(%s / %s)" (render a) (render b)
  | Mod2 (a, b) -> Printf.sprintf "(%s %% %s)" (render a) (render b)
  | And2 (a, b) -> Printf.sprintf "(%s & %s)" (render a) (render b)
  | Or2 (a, b) -> Printf.sprintf "(%s | %s)" (render a) (render b)
  | Xor2 (a, b) -> Printf.sprintf "(%s ^ %s)" (render a) (render b)
  | Shl2 (a, b) -> Printf.sprintf "(%s << %s)" (render a) (render b)
  | Shr2 (a, b) -> Printf.sprintf "(%s >> %s)" (render a) (render b)
  | Lt2 (a, b) -> Printf.sprintf "(%s < %s)" (render a) (render b)
  | Eq2 (a, b) -> Printf.sprintf "(%s == %s)" (render a) (render b)

let gen_iexpr =
  QCheck.Gen.(
    (* small budget: register pressure grows with expression depth *)
    int_bound 20 >>= fix (fun self n ->
           if n <= 0 then map (fun v -> Lit (Int64.of_int (v - 500))) (int_bound 1000)
           else
             let sub = self (n / 2) in
             oneof
               [
                 map (fun v -> Lit (Int64.of_int (v - 500))) (int_bound 1000);
                 map2 (fun a b -> Add2 (a, b)) sub sub;
                 map2 (fun a b -> Sub2 (a, b)) sub sub;
                 map2 (fun a b -> Mul2 (a, b)) sub sub;
                 map2 (fun a b -> Div2 (a, b)) sub sub;
                 map2 (fun a b -> Mod2 (a, b)) sub sub;
                 map2 (fun a b -> And2 (a, b)) sub sub;
                 map2 (fun a b -> Or2 (a, b)) sub sub;
                 map2 (fun a b -> Xor2 (a, b)) sub sub;
                 map (fun a -> Shl2 (a, Lit 3L)) sub;
                 map (fun a -> Shr2 (a, Lit 2L)) sub;
                 map2 (fun a b -> Lt2 (a, b)) sub sub;
                 map2 (fun a b -> Eq2 (a, b)) sub sub;
               ]))

let prop_compiler_differential =
  QCheck.Test.make ~count:60 ~name:"compiled expressions match native evaluation"
    (QCheck.make ~print:render gen_iexpr)
    (fun e ->
      let expected = eval_native e in
      let src = Printf.sprintf "int main(void) { print_int(%s); return 0; }" (render e) in
      match
        List.map
          (fun mode -> run_mode mode src)
          [ Minic.Layout.Legacy; Minic.Layout.Cheri ]
      with
      | results ->
          List.for_all
            (function
              | 0, [ out ] -> String.equal out (Int64.to_string expected)
              | _ -> false)
            results
      | exception Minic.Driver.Error _ ->
          (* an over-deep expression exhausting the temporary pool is a
             documented compiler limit, not a semantics bug *)
          QCheck.assume_fail ())

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let suites = suites @ [ qsuite "minic-differential" [ prop_compiler_differential ] ]

(* --- ablation harness --------------------------------------------------------- *)

let test_compression_ablation () =
  match Exp.Ablation.compression ~benches:[ ("treeadd", 10) ] () with
  | [ row ] ->
      Alcotest.(check bool) "128-bit overhead below 256-bit" true
        (row.Exp.Ablation.cheri128_total_pct < row.Exp.Ablation.cheri256_total_pct);
      Alcotest.(check bool) "footprint halves" true
        (row.Exp.Ablation.heap128_kb * 2 <= row.Exp.Ablation.heap256_kb + 1)
  | _ -> Alcotest.fail "expected one row"

let suites =
  suites
  @ [
      ( "ablation",
        [ Alcotest.test_case "capability compression" `Slow test_compression_ablation ] );
    ]
