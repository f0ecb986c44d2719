(* In-process compartmentalization with sealed capabilities and protected
   calls (Sections 5.3 and 11).

     dune exec examples/compartments.exe

   A "password keeper" compartment holds a secret in its private data
   segment.  The main program receives only a *sealed* code/data
   capability pair: it cannot dereference either (sealed capabilities trap
   on use), but it can CCall through them.  The kernel's trusted stack
   unseals the pair, enters the compartment with its private data
   capability installed, and CReturn restores the caller — mutual-distrust
   domain crossing inside one address space, one UNIX process. *)

let program =
  {|
main:
  # --- set up the compartment (a trusted loader would do this) ---
  # authority capability for otype 7
  li $t0, 7
  cincbase $c4, $c0, $t0
  li $t1, 1
  csetlen $c4, $c4, $t1

  # compartment code capability, sealed
  la $t2, keeper
  cincbase $c5, $c0, $t2
  cseal $c1, $c5, $c4

  # compartment private data (the secret lives here), sealed
  la $t3, vault
  cincbase $c6, $c0, $t3
  li $t4, 32
  csetlen $c6, $c6, $t4
  li $t5, 31337
  csd $t5, $zero, 0($c6)     # loader writes the secret
  cseal $c2, $c6, $c4

  # --- from here on, main holds only the sealed pair in c1/c2 ---

  # 1. direct access through the sealed data capability must trap;
  #    prove it by probing: cgettag works, cld would fault. Instead we
  #    check the seal bit via a protected call that returns a digest.
  ccall $c1, $c2             # enter the compartment
  # back from the compartment: $v1 holds the digest (secret mod 1000)
  move $a0, $v1
  li $v0, 7                  # print_int -> 337
  syscall

  # 2. main still cannot read the secret: try and trap.
  cld $t6, $zero, 0($c2)     # sealed! CP2 seal violation

  li $v0, 1
  li $a0, 0
  syscall

# --- the compartment: runs with C26 = unsealed private data ---
keeper:
  cld $t0, $zero, 0($c26)    # read the secret via the invoked data cap
  li $t1, 1000
  ddivu $t0, $t1
  mfhi $v1                   # digest = secret mod 1000
  creturn

  .data
  .align 5
vault: .space 32
|}

let () =
  let machine = Machine.create () in
  let kernel = Os.Kernel.attach machine in
  let trap = ref None in
  Os.Kernel.set_fault_handler kernel (fun _k fault ->
      trap := Some fault.Os.Kernel.capcause;
      Machine.Halt 77);
  let result, console = Os.Kernel.run_program kernel program in
  let exit_code = Machine.exit_code result in
  Fmt.pr "compartment digest printed by main: %s@." (String.trim console);
  Fmt.pr "protected calls taken (kernel trusted stack): %d@." kernel.Os.Kernel.ccalls;
  Fmt.pr "main's later direct read of the sealed data: %s (exit %d)@."
    (match !trap with Some c -> Cap.Cause.to_string c | None -> "(no trap!)")
    exit_code;
  assert (String.trim console = "337");
  assert (kernel.Os.Kernel.ccalls = 1);
  assert (!trap = Some Cap.Cause.Seal_violation && exit_code = 77);
  Fmt.pr "@.The secret crossed the boundary only as a 3-digit digest.@."
