(* minicc: the minic compiler driver.

     dune exec bin/minicc.exe -- program.c --mode cheri [-o out.s] [--run]

   Compiles a minic source file with the selected pointer lowering
   (legacy | cheri | softcheck) and either writes the assembly or runs it
   directly on the simulated machine. *)

open Cmdliner

let mode_conv =
  let parse = function
    | "legacy" -> Ok Minic.Layout.Legacy
    | "cheri" -> Ok Minic.Layout.Cheri
    | "cheri128" -> Ok Minic.Layout.Cheri128
    | "softcheck" -> Ok Minic.Layout.Softcheck
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (legacy|cheri|cheri128|softcheck)" s))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (Minic.Layout.mode_name m))

let compile file mode output run_it =
  let source = In_channel.with_open_text file In_channel.input_all in
  let asm =
    try Minic.Driver.compile ~mode source
    with Minic.Driver.Error msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 2
  in
  (match output with
  | Some path -> Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc asm)
  | None -> if not run_it then print_string asm);
  if run_it then begin
    (* cheri128 code needs the 128-bit capability machine *)
    let config =
      match mode with
      | Minic.Layout.Cheri128 ->
          { Machine.default_config with Machine.cap_width = Machine.W128 }
      | _ -> Machine.default_config
    in
    let machine = Machine.create ~config () in
    let kernel = Os.Kernel.attach machine in
    Os.Kernel.set_fault_handler kernel (fun _k fault ->
        Fmt.epr "fatal fault at pc=0x%Lx: %s (capcause=%s)@." fault.Os.Kernel.pc
          (Beri.Cp0.exc_to_string fault.Os.Kernel.exc)
          (Cap.Cause.to_string fault.Os.Kernel.capcause);
        Machine.Halt 139);
    let result, console = Os.Kernel.run_program kernel asm in
    (match result with
    | Machine.Exited _ -> ()
    | r -> Fmt.epr "[machine] %a@." Machine.pp_run_result r);
    let code = Machine.exit_code result in
    print_string console;
    Fmt.epr "[%s] exit=%d cycles=%d instructions=%d@." (Minic.Layout.mode_name mode) code
      machine.Machine.cycles machine.Machine.instret;
    exit code
  end

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.C")

let mode =
  Arg.(value & opt mode_conv Minic.Layout.Legacy & info [ "mode"; "m" ] ~doc:"Pointer lowering.")

let output = Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Write assembly to $(docv).")
let run_it = Arg.(value & flag & info [ "run" ] ~doc:"Execute on the simulated machine.")

let cmd =
  Cmd.v
    (Cmd.info "minicc" ~doc:"Compile minic to BERI/CHERI assembly")
    Term.(const compile $ file $ mode $ output $ run_it)

let () = exit (Cmd.eval cmd)
