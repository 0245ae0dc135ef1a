(* Prints the deterministic counters of the two paper workloads at the
   benchmark's sizes, SAXPY N=1M and SGESL N=2048: each is compiled with
   default options and run once under the compiled engine. The record is
   the program output, interpreter steps, launches, bytes moved, the
   simulated device, kernel, transfer and overhead times as hex floats,
   and the byte lengths of the LLVM-IR, its LLVM-7 downgrade and the host
   C++. Nothing measured on the wall clock is printed.

     print_counters.exe *)

open Ftn_runtime
module Sources = Ftn_linpack.Fortran_sources

let length = function Some s -> String.length s | None -> 0

let () =
  List.iter
    (fun (name, src) ->
      let art = Core.Compiler.compile src in
      let bitstream = Core.Compiler.synthesise art in
      Ftn_obs.Metrics.reset ();
      let r =
        Executor.run ~engine:`Compiled ~host:art.Core.Compiler.host ~bitstream
          ()
      in
      Printf.printf "==== %s ====\n-- output\n%s-- counters\n" name
        r.Executor.output;
      Printf.printf "steps=%d launches=%d bytes=%d\n"
        (Ftn_obs.Metrics.counter_value "interp.steps")
        r.Executor.kernel_launches r.Executor.bytes_transferred;
      Printf.printf "device=%h kernel=%h transfer=%h overhead=%h\n"
        r.Executor.device_time_s r.Executor.kernel_time_s
        r.Executor.transfer_time_s r.Executor.overhead_time_s;
      Printf.printf "llvm_ir=%d llvm_ir_downgraded=%d host_cpp=%d\n"
        (length art.Core.Compiler.llvm_ir)
        (length art.Core.Compiler.llvm_ir_downgraded)
        (length art.Core.Compiler.host_cpp))
    [
      ("saxpy_n1000000", Sources.saxpy ~n:1_000_000);
      ("sgesl_n2048", Sources.sgesl ~n:2048);
    ]
