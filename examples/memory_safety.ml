(* Memory safety for C (Section 5.1): one buggy program, three compilers.

     dune exec examples/memory_safety.exe

   The minic program below overflows a heap buffer — the canonical
   exploitable C bug.  Compiled three ways:

     legacy     plain MIPS: the overflow silently corrupts the adjacent
                allocation (here, an "is_admin" flag — a classic privilege
                escalation);
     softcheck  CCured-style software fat pointers: detected, at a large
                run-time cost;
     cheri      pointers are capabilities: the CP2 raises a length
                violation at the exact faulting store, for free. *)

let buggy_program =
  {|
int main(void) {
  int *name_buf = (int*) malloc(8 * sizeof(int));
  int *is_admin = (int*) malloc(sizeof(int));
  is_admin[0] = 0;

  // "read user input": writes 9 cells into an 8-cell buffer
  int i = 0;
  while (i <= 8) {
    name_buf[i] = 65;
    i = i + 1;
  }

  if (is_admin[0] != 0) {
    print_int(666);    // privilege escalation!
  } else {
    print_int(1);
  }
  return 0;
}
|}

let run mode =
  let asm = Minic.Driver.compile ~mode buggy_program in
  let machine = Machine.create () in
  let kernel = Os.Kernel.attach machine in
  let trap = ref None in
  Os.Kernel.set_fault_handler kernel (fun _k fault ->
      trap := Some fault.Os.Kernel.capcause;
      Machine.Halt 139);
  let result, console = Os.Kernel.run_program kernel asm in
  (Machine.exit_code result, String.trim console, !trap)

let () =
  Fmt.pr "One buggy C program, three pointer lowerings:@.@.";
  let legacy_exit, legacy_out, _ = run Minic.Layout.Legacy in
  Fmt.pr "  legacy:    exit=%d output=%S@." legacy_exit legacy_out;
  if legacy_out = "666" then
    Fmt.pr "             -> overflow silently corrupted is_admin: escalation!@.";
  let soft_exit, _, _ = run Minic.Layout.Softcheck in
  Fmt.pr "  softcheck: exit=%d (97 = software bounds check fired)@." soft_exit;
  let cheri_exit, _, trap = run Minic.Layout.Cheri in
  Fmt.pr "  cheri:     exit=%d, CP2 cause: %s@." cheri_exit
    (match trap with Some c -> Cap.Cause.to_string c | None -> "(none)");
  assert (legacy_exit = 0 && legacy_out = "666");
  assert (soft_exit = 97);
  assert (cheri_exit = 139 && trap = Some Cap.Cause.Length_violation);
  Fmt.pr "@.The hardware caught exactly what the C standard leaves undefined.@."
