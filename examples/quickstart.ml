(* Quickstart: boot the CHERI machine, run a capability-aware program, and
   watch the hardware catch an out-of-bounds access.

     dune exec examples/quickstart.exe

   The program derives a bounded capability for a 64-byte buffer with
   CIncBase/CSetLen, uses it for stores and loads, and then walks one byte
   past the end — raising a CP2 length-violation exception that the kernel
   model reports. *)

let program =
  {|
# -- a capability-aware routine: fill a buffer through a bounded capability
main:
  la $t0, buffer
  cincbase $c1, $c0, $t0      # c1 = capability based at `buffer`
  li $t1, 64
  csetlen $c1, $c1, $t1       # ... 64 bytes long
  li $t2, 0xD                 # Global|Load|Store: drop everything else
  candperm $c1, $c1, $t2

  # fill the buffer via the capability (hardware bounds checks, free)
  li $t3, 0                   # index
fill:
  csd $t3, $t3, 0($c1)        # buffer[i] = i, checked by CP2
  daddiu $t3, $t3, 8
  sltiu $at, $t3, 64
  bnez $at, fill

  # read one value back and print it
  li $t3, 24
  cld $a0, $t3, 0($c1)
  li $v0, 7                   # print_int
  syscall

  # now walk off the end: buffer[64] -- the CP2 traps
  li $t3, 64
  cld $a0, $t3, 0($c1)

  li $v0, 1                   # (never reached)
  li $a0, 0
  syscall

  .data
  .align 5
buffer: .space 128
|}

let () =
  let machine = Machine.create () in
  let kernel = Os.Kernel.attach machine in
  Os.Kernel.set_fault_handler kernel (fun _k fault ->
      Fmt.pr "CP2 exception at pc=0x%Lx: %s (capability register C%d)@."
        fault.Os.Kernel.pc
        (Cap.Cause.to_string fault.Os.Kernel.capcause)
        fault.Os.Kernel.capreg;
      Machine.Halt 42);
  let result, console = Os.Kernel.run_program kernel program in
  let exit_code = Machine.exit_code result in
  Fmt.pr "console output: %s@." (String.trim console);
  Fmt.pr "exit code: %d (42 = our fault handler ran)@." exit_code;
  Fmt.pr "cycles: %d, instructions: %d@." machine.Machine.cycles machine.Machine.instret;
  assert (exit_code = 42)
