(* Prints the canonically renumbered host, device_hls and device_llvm
   modules that the mid-end produces for one embedded benchmark source.

     print_ir.exe sgesl | many_kernels *)

let source = function
  | "sgesl" -> Ftn_linpack.Fortran_sources.sgesl ~n:16
  | "many_kernels" -> Ftn_linpack.Fortran_sources.many_kernels ~kernels:4 ~n:64
  | s -> invalid_arg ("print_ir: unknown source " ^ s)

let () =
  let core = Ftn_frontend.Frontend.to_core (source Sys.argv.(1)) in
  let c = Ftn_passes.Pipeline.run_mid_end core in
  List.iter
    (fun (stage, m) ->
      Printf.printf "// ---- %s ----\n" stage;
      print_string (Ftn_ir.Printer.to_string (Ftn_ir.Op.renumber m)))
    [
      ("host", c.host);
      ("device_hls", Option.get c.device_hls);
      ("device_llvm", Option.get c.device_llvm);
    ]
