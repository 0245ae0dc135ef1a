(* Prints what compiling a corpus of generated sources produces: two or
   three parameter values of each of the six source generators and the
   four job-mix variants of the benchmark, each compiled with default
   options. Per program the record is the rewrite driver's fired, folded
   and erased counts over the compile, the op count after every pipeline
   stage, and an MD5 of the text of each artifact. The module artifacts
   are printed without renumbering, so the value ids the passes allocate
   are pinned along with the IR they build. Nothing measured on the wall
   clock is printed, and neither is the driver's visit count.

     print_corpus.exe *)

module Src = Ftn_linpack.Fortran_sources
module Metrics = Ftn_obs.Metrics
module C = Core.Compiler

let programs =
  [
    ("saxpy n=1000", Src.saxpy ~n:1000);
    ("saxpy n=4096", Src.saxpy ~n:4096);
    ("saxpy n=10000", Src.saxpy ~n:10000);
    ("sgesl n=16", Src.sgesl ~n:16);
    ("sgesl n=32", Src.sgesl ~n:32);
    ("sgesl n=64", Src.sgesl ~n:64);
    ("dot_product n=64 simdlen=1", Src.dot_product ~n:64 ~simdlen:1);
    ("dot_product n=512 simdlen=4", Src.dot_product ~n:512 ~simdlen:4);
    ("dot_product n=1024 simdlen=8", Src.dot_product ~n:1024 ~simdlen:8);
    ("dot_product n=512 simdlen=10", Src.dot_product ~n:512 ~simdlen:10);
    ("data_regions n=8", Src.data_regions ~n:8);
    ("data_regions n=512", Src.data_regions ~n:512);
    ("many_kernels kernels=1 n=16", Src.many_kernels ~kernels:1 ~n:16);
    ("many_kernels kernels=4 n=64", Src.many_kernels ~kernels:4 ~n:64);
    ("many_kernels kernels=13 n=128", Src.many_kernels ~kernels:13 ~n:128);
    ("stencil n=32 steps=2", Src.stencil ~n:32 ~steps:2);
    ("stencil n=256 steps=4", Src.stencil ~n:256 ~steps:4);
    ("stencil n=256 steps=7", Src.stencil ~n:256 ~steps:7);
  ]

let counters = [ "patterns_fired"; "ops_folded"; "ops_erased" ]

let read_counters () =
  List.map (fun c -> Metrics.counter_value ("rewrite." ^ c)) counters

let digest text = Digest.to_hex (Digest.string text)
let ir m = digest (Ftn_ir.Printer.to_string m)

let () =
  List.iter
    (fun (name, src) ->
      let before = read_counters () in
      let art = C.compile src in
      let after = read_counters () in
      Printf.printf "==== %s ====\nrewrite" name;
      List.iter2
        (fun c (b, a) -> Printf.printf " %s=%d" c (a - b))
        counters
        (List.combine before after);
      print_newline ();
      List.iter
        (fun (r : Ftn_ir.Pass.stage_record) ->
          Printf.printf "stage %s %d\n" r.stage_name r.op_count)
        art.C.stages;
      List.iter
        (fun (what, text) ->
          Printf.printf "%s %s\n" what (Option.value ~default:"-" text))
        [
          ("combined", Some (ir art.C.combined));
          ("host", Some (ir art.C.host));
          ("device_core", Option.map ir art.C.device_core);
          ("device_hls", Option.map ir art.C.device_hls);
          ("device_llvm", Option.map ir art.C.device_llvm);
          ("llvm_ir", Option.map digest art.C.llvm_ir);
          ("llvm_ir_downgraded", Option.map digest art.C.llvm_ir_downgraded);
          ("host_cpp", Option.map digest art.C.host_cpp);
        ])
    programs
