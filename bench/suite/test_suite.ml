(* Tests for the benchmark suite: seeded inputs, order statistics, span
   self times, and the traced compile against Core.Compiler.compile. *)

open Bench_suite

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let sources ps = List.map (fun (p : Inputs.program) -> p.source) ps

let input_tests =
  [
    tc "the same seed gives the same corpus and job plan" (fun () ->
        check
          Alcotest.(list string)
          "corpus" (sources (Inputs.corpus ~seed:1))
          (sources (Inputs.corpus ~seed:1));
        check Alcotest.bool "jobs" true (Inputs.jobs ~seed:1 = Inputs.jobs ~seed:1));
    tc "seeds 1 and 2 differ" (fun () ->
        check Alcotest.bool "corpus" false
          (sources (Inputs.corpus ~seed:1) = sources (Inputs.corpus ~seed:2));
        check Alcotest.bool "jobs" false (Inputs.jobs ~seed:1 = Inputs.jobs ~seed:2));
    tc "every seed draws the same number of programs per generator" (fun () ->
        let count seed =
          Inputs.corpus ~seed
          |> List.map (fun (p : Inputs.program) ->
                 List.hd (String.split_on_char '-' p.name))
          |> List.sort compare
        in
        check Alcotest.int "size" 24 (List.length (count 1));
        check Alcotest.(list string) "mix" (count 1) (count 7));
    tc "the job plan has balanced variants and known dependencies" (fun () ->
        let plan = Inputs.jobs ~seed:3 in
        check Alcotest.int "jobs" Inputs.n_jobs (List.length plan);
        Array.iteri
          (fun v _ ->
            check Alcotest.int "per variant" (Inputs.n_jobs / 4)
              (List.length
                 (List.filter (fun (j : Inputs.job) -> j.variant = v) plan)))
          Inputs.job_variants;
        let seen = Hashtbl.create 1000 in
        List.iter
          (fun (j : Inputs.job) ->
            List.iter
              (fun d -> check Alcotest.bool ("dep " ^ d) true (Hashtbl.mem seen d))
              j.deps;
            Hashtbl.add seen j.job_name ())
          plan);
  ]

let close = Alcotest.float 1e-12

let span id parent start_s dur_s =
  {
    Ftn_obs.Span.id;
    parent;
    name = Fmt.str "s%d" id;
    clock = Ftn_obs.Span.Wall;
    start_s;
    dur_s;
    attrs = [];
  }

let stats_tests =
  [
    tc "median" (fun () ->
        check close "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
        check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]));
    tc "quartiles match Python's statistics.quantiles" (fun () ->
        let q xs = Stats.quartiles (List.map float_of_int xs) in
        check Alcotest.(pair close close) "1..10" (2.75, 8.25)
          (q (List.init 10 succ));
        check Alcotest.(pair close close) "1..5" (1.5, 4.5) (q [ 5; 3; 1; 2; 4 ]);
        check Alcotest.(pair close close) "two" (0.75, 2.25) (q [ 1; 2 ]);
        check Alcotest.(pair close close) "one" (7.0, 7.0) (q [ 7 ]));
    tc "self time subtracts the union of the children" (fun () ->
        (* s1 and s2 overlap; s3 runs past its parent's end. *)
        let spans =
          [
            span 0 None 0.0 10.0;
            span 1 (Some 0) 1.0 3.0;
            span 2 (Some 0) 3.0 3.0;
            span 3 (Some 0) 8.0 4.0;
            span 4 (Some 1) 2.0 1.0;
          ]
        in
        check
          Alcotest.(list (pair int close))
          "self"
          [ (0, 3.0); (1, 2.0); (2, 3.0); (3, 4.0); (4, 1.0) ]
          (Stats.self_times spans));
  ]

let print_opt = Option.map Ftn_ir.Printer.to_string

(* Every artifact of a compile, as text. *)
let printed (a : Core.Compiler.artifacts) =
  [
    ("fir", Some (Ftn_ir.Printer.to_string a.fir_module));
    ("core", Some (Ftn_ir.Printer.to_string a.core_module));
    ("combined", Some (Ftn_ir.Printer.to_string a.combined));
    ("host", Some (Ftn_ir.Printer.to_string a.host));
    ("device_core", print_opt a.device_core);
    ("device_hls", print_opt a.device_hls);
    ("device_llvm", print_opt a.device_llvm);
    ("llvm_ir", a.llvm_ir);
    ("llvm_ir_downgraded", a.llvm_ir_downgraded);
    ("host_cpp", a.host_cpp);
  ]

let same_as_compiler name source =
  tc ("traced compile equals Core.Compiler.compile on " ^ name) (fun () ->
      let collector = Ftn_obs.Span.create () in
      let traced = Layers.compile ~collector source in
      let reference = Core.Compiler.compile source in
      List.iter2
        (fun (k, a) (_, b) -> check Alcotest.(option string) k b a)
        (printed traced) (printed reference);
      check Alcotest.int "stages"
        (List.length reference.stages)
        (List.length traced.stages);
      let names =
        List.map (fun (sp : Ftn_obs.Span.span) -> sp.name)
          (Ftn_obs.Span.spans collector)
      in
      List.iter
        (fun n -> check Alcotest.bool n true (List.mem n names))
        [
          "fortran.parse"; "fortran.sema"; "fortran.to_fir";
          "fortran.fir_to_core"; "ir.verify"; "passes.mid_end";
          "codegen.lower_device"; "codegen.emit_llvm_ir";
          "codegen.llvm_compat"; "codegen.host_cpp";
        ])

let layer_tests =
  [
    same_as_compiler "SAXPY N=1000" (Ftn_linpack.Fortran_sources.saxpy ~n:1000);
    same_as_compiler "many_kernels k=4"
      (Ftn_linpack.Fortran_sources.many_kernels ~kernels:4 ~n:128);
    tc "mid-end stages carry their own keys" (fun () ->
        let a =
          Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:100)
        in
        check
          Alcotest.(list string)
          "keys" Layers.stages
          (List.map fst (Layers.stage_keys a.stages)));
  ]

let () =
  Alcotest.run "bench-suite"
    [ ("inputs", input_tests); ("stats", stats_tests); ("layers", layer_tests) ]
