(* The exit code of a run that must end with the kernel halting the
   machine; any other outcome fails the test with its diagnostic
   snapshot. *)
let exited = function
  | Machine.Exited code -> code
  | r -> Alcotest.failf "%a" Machine.pp_run_result r
