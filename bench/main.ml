(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4) on the simulated U280, printing measured values
   next to the paper's published numbers, plus one Bechamel micro-benchmark
   per table covering the computation that produces it.

     dune exec bench/main.exe            # full paper problem sizes
     dune exec bench/main.exe -- --quick # reduced sizes for smoke runs
     dune exec bench/main.exe -- --skip-bechamel *)

open Ftn_hlsim
open Ftn_runtime

let quick = Array.exists (String.equal "--quick") Sys.argv
let skip_bechamel = Array.exists (String.equal "--skip-bechamel") Sys.argv

(* --compile runs only the domain-parallel compile-pipeline gate
   (BENCH_compile.json), which doubles as the `make bench-compile`
   sanity gate. *)
let compile_only = Array.exists (String.equal "--compile") Sys.argv

(* --interp runs only the interpreter-engine comparison (BENCH_interp.json),
   which doubles as the `make bench-interp` sanity gate. *)
let interp_only = Array.exists (String.equal "--interp") Sys.argv

(* --faults runs only the fault-injection comparison (BENCH_fault.json),
   which doubles as the `make bench-fault` sanity gate. *)
let fault_only = Array.exists (String.equal "--faults") Sys.argv

(* --backends runs only the cross-backend comparison (BENCH_backend.json),
   used as a sanity gate in `make check`. *)
let backend_only = Array.exists (String.equal "--backends") Sys.argv

(* --profile runs only the profiling-overhead gate (BENCH_profile.json),
   which doubles as the `make bench-profile` sanity gate. *)
let profile_only = Array.exists (String.equal "--profile") Sys.argv

(* --sched runs only the multi-device scheduler gate (BENCH_sched.json),
   which doubles as the `make bench-sched` sanity gate. *)
let sched_only = Array.exists (String.equal "--sched") Sys.argv

(* --chaos runs only the resilience-layer soak (BENCH_chaos.json),
   which doubles as the `make bench-chaos` sanity gate. *)
let chaos_only = Array.exists (String.equal "--chaos") Sys.argv

let progress fmt = Fmt.epr (fmt ^^ "@.")

let saxpy_sizes =
  if quick then [ 1_000; 10_000; 50_000; 100_000 ]
  else [ 10_000; 100_000; 1_000_000; 10_000_000 ]

let saxpy_labels =
  if quick then [ "N=1K"; "N=10K"; "N=50K"; "N=100K" ]
  else [ "N=10K"; "N=100K"; "N=1M"; "N=10M" ]

let sgesl_sizes = if quick then [ 64; 128; 256; 512 ] else [ 256; 512; 1024; 2048 ]
let sgesl_labels = List.map (fun n -> Fmt.str "N=%d" n) sgesl_sizes

(* --- measured raw data, shared between tables --- *)

type run_data = {
  device_time_s : float;
  kernel_time_s : float;
  resources : Resources.report;
}

let run_saxpy_ftn n =
  progress "  saxpy (Fortran flow) N=%d ..." n;
  let run = Core.Run.run (Ftn_linpack.Fortran_sources.saxpy ~n) in
  {
    device_time_s = Core.Run.device_time run;
    kernel_time_s = Core.Run.kernel_time run;
    resources =
      (List.hd run.Core.Run.bitstream.Bitstream.kernels).Bitstream.kd_resources;
  }

let run_saxpy_hand n =
  progress "  saxpy (hand-written HLS) N=%d ..." n;
  let r = Ftn_linpack.Hls_baselines.run_saxpy ~n () in
  {
    device_time_s = r.Ftn_linpack.Hls_baselines.result.Executor.device_time_s;
    kernel_time_s = r.Ftn_linpack.Hls_baselines.result.Executor.kernel_time_s;
    resources =
      (List.hd r.Ftn_linpack.Hls_baselines.bitstream.Bitstream.kernels)
        .Bitstream.kd_resources;
  }

let run_sgesl_ftn n =
  progress "  sgesl (Fortran flow) N=%d ..." n;
  let run = Core.Run.run (Ftn_linpack.Fortran_sources.sgesl ~n) in
  {
    device_time_s = Core.Run.device_time run;
    kernel_time_s = Core.Run.kernel_time run;
    resources =
      (List.hd run.Core.Run.bitstream.Bitstream.kernels).Bitstream.kd_resources;
  }

let run_sgesl_hand n =
  progress "  sgesl (hand-written HLS) N=%d ..." n;
  let r = Ftn_linpack.Hls_baselines.run_sgesl ~n () in
  {
    device_time_s = r.Ftn_linpack.Hls_baselines.result.Executor.device_time_s;
    kernel_time_s = r.Ftn_linpack.Hls_baselines.result.Executor.kernel_time_s;
    resources =
      (List.hd r.Ftn_linpack.Hls_baselines.bitstream.Bitstream.kernels)
        .Bitstream.kd_resources;
  }

let saxpy_ftn = lazy (List.map run_saxpy_ftn saxpy_sizes)
let saxpy_hand = lazy (List.map run_saxpy_hand saxpy_sizes)
let sgesl_ftn = lazy (List.map run_sgesl_ftn sgesl_sizes)
let sgesl_hand = lazy (List.map run_sgesl_hand sgesl_sizes)

(* --- formatting helpers --- *)

let rule = String.make 78 '-'

(* OCaml string continuations leave indentation runs inside literals;
   squeeze them for display. *)
let squeeze s =
  let buf = Buffer.create (String.length s) in
  let prev_space = ref false in
  String.iter
    (fun c ->
      if c = ' ' then begin
        if not !prev_space then Buffer.add_char buf ' ';
        prev_space := true
      end
      else begin
        prev_space := false;
        Buffer.add_char buf c
      end)
    s;
  Buffer.contents buf

let header title =
  Fmt.pr "@.%s@.%s@.%s@." rule (squeeze title) rule

let pp_row label cells =
  Fmt.pr "%-18s %s@." label
    (String.concat "  " (List.map (fun c -> Fmt.str "%14s" c) cells))

(* --- Tables 1 and 2: runtime --- *)

let paper_table1_ftn = [ (1.251, 0.028); (10.931, 0.017); (110.245, 0.018); (1073.044, 0.037) ]
let paper_table1_hand = [ (1.258, 0.025); (10.925, 0.149); (110.148, 0.018); (1072.888, 0.034) ]
let paper_table2_ftn = [ (20.445, 0.077); (80.791, 0.026); (325.117, 0.116); (1317.247, 0.101) ]
let paper_table2_hand = [ (20.594, 0.115); (81.121, 0.023); (325.573, 0.032); (1318.418, 0.042) ]

let measure_ms ~seed t_s =
  let s = Core.Measure.measure ~runs:10 ~seed t_s in
  (s.Core.Measure.median *. 1e3, s.Core.Measure.std *. 1e3)

let runtime_table ~title ~labels ~ftn ~hand ~paper_ftn ~paper_hand =
  header title;
  pp_row "" labels;
  let medians seed data =
    List.mapi
      (fun i (d : run_data) -> measure_ms ~seed:(seed + i) d.device_time_s)
      data
  in
  let ftn_ms = medians 11 ftn and hand_ms = medians 41 hand in
  let cells ms = List.map (fun (m, s) -> Fmt.str "%.3f ± %.3f" m s) ms in
  pp_row "Fortran OpenMP" (cells ftn_ms);
  pp_row "Hand-written HLS" (cells hand_ms);
  (* As in the paper, the difference is taken between the measured medians
     (hand-written relative to Fortran), so it sits at noise level. *)
  let diffs =
    List.map2
      (fun (f, _) (h, _) -> Fmt.str "%+.2f%%" (100.0 *. (h -. f) /. f))
      ftn_ms hand_ms
  in
  pp_row "Difference" diffs;
  if not quick then begin
    pp_row "[paper] Fortran"
      (List.map (fun (m, s) -> Fmt.str "%.3f ± %.3f" m s) paper_ftn);
    pp_row "[paper] Hand HLS"
      (List.map (fun (m, s) -> Fmt.str "%.3f ± %.3f" m s) paper_hand)
  end

let table1 () =
  runtime_table
    ~title:
      "Table 1: SAXPY runtime (ms, median ± std of 10 runs), Fortran OpenMP \
       vs hand-written HLS"
    ~labels:saxpy_labels ~ftn:(Lazy.force saxpy_ftn)
    ~hand:(Lazy.force saxpy_hand) ~paper_ftn:paper_table1_ftn
    ~paper_hand:paper_table1_hand

let table2 () =
  runtime_table
    ~title:
      "Table 2: SGESL runtime (ms, median ± std of 10 runs), Fortran OpenMP \
       vs hand-written HLS"
    ~labels:sgesl_labels ~ftn:(Lazy.force sgesl_ftn)
    ~hand:(Lazy.force sgesl_hand) ~paper_ftn:paper_table2_ftn
    ~paper_hand:paper_table2_hand

(* --- Tables 3 and 4: resource utilisation --- *)

let resource_table ~title ~ftn ~hand ~paper =
  header title;
  pp_row "" [ "LUT %"; "BRAM %"; "DSP %" ];
  let row (r : Resources.report) =
    [ Fmt.str "%.2f" r.Resources.lut_pct;
      Fmt.str "%.2f" r.Resources.bram_pct;
      Fmt.str "%.2f" r.Resources.dsp_pct ]
  in
  pp_row "Fortran OpenMP" (row ftn);
  pp_row "Hand-written HLS" (row hand);
  let (pf, ph) = paper in
  pp_row "[paper] Fortran" (List.map (Fmt.str "%.2f") pf);
  pp_row "[paper] Hand HLS" (List.map (Fmt.str "%.2f") ph)

let largest xs = List.nth xs (List.length xs - 1)

let table3 () =
  resource_table
    ~title:
      (Fmt.str
         "Table 3: SAXPY resource utilisation (%s, largest problem size)"
         (largest saxpy_labels))
    ~ftn:(largest (Lazy.force saxpy_ftn)).resources
    ~hand:(largest (Lazy.force saxpy_hand)).resources
    ~paper:([ 8.29; 10.07; 0.10 ], [ 8.29; 10.07; 0.10 ])

let table4 () =
  resource_table
    ~title:
      (Fmt.str "Table 4: SGESL resource utilisation (%s)" (largest sgesl_labels))
    ~ftn:(largest (Lazy.force sgesl_ftn)).resources
    ~hand:(largest (Lazy.force sgesl_hand)).resources
    ~paper:([ 8.24; 10.07; 0.10 ], [ 8.22; 10.07; 0.23 ])

(* --- Tables 5 and 6: power --- *)

let spec = Fpga_spec.u280

let power_table ~title ~seed0 ~labels ~ftn ~hand ~paper =
  header title;
  pp_row "" labels;
  let row seed data =
    List.mapi
      (fun i (d : run_data) ->
        let p =
          Power.fpga_power_w spec d.resources ~kernel_time_s:d.kernel_time_s
            ~device_time_s:d.device_time_s ()
        in
        let s = Core.Measure.measure_power ~seed:(seed + i) p in
        Fmt.str "%.3f" s.Core.Measure.median)
      data
  in
  pp_row "Fortran OpenMP" (row (seed0 + 7) ftn);
  pp_row "Hand-written HLS" (row (seed0 + 23) hand);
  let cpu_row =
    List.mapi
      (fun i (d : run_data) ->
        let p = Power.cpu_power_w spec ~kernel_time_s:d.kernel_time_s in
        let s =
          Core.Measure.measure_power ~seed:(seed0 + 59 + i) ~jitter_w:1.4 p
        in
        Fmt.str "%.2f" s.Core.Measure.median)
      ftn
  in
  pp_row "CPU single core" cpu_row;
  let pf, ph, pc = paper in
  pp_row "[paper] Fortran" (List.map (Fmt.str "%.3f") pf);
  pp_row "[paper] Hand HLS" (List.map (Fmt.str "%.3f") ph);
  pp_row "[paper] CPU" (List.map (Fmt.str "%.2f") pc)

let table5 () =
  power_table
    ~title:"Table 5: SAXPY median power draw (W), FPGA flows vs CPU single core"
    ~seed0:100 ~labels:saxpy_labels ~ftn:(Lazy.force saxpy_ftn)
    ~hand:(Lazy.force saxpy_hand)
    ~paper:
      ( [ 21.847; 23.528; 25.535; 24.167 ],
        [ 22.178; 22.496; 23.998; 24.297 ],
        [ 56.13; 55.08; 57.31; 54.91 ] )

let table6 () =
  power_table
    ~title:"Table 6: SGESL median power draw (W), FPGA flows vs CPU single core"
    ~seed0:500 ~labels:sgesl_labels ~ftn:(Lazy.force sgesl_ftn)
    ~hand:(Lazy.force sgesl_hand)
    ~paper:
      ( [ 21.866; 22.989; 24.243; 24.278 ],
        [ 22.363; 23.121; 23.640; 24.066 ],
        [ 52.70; 53.71; 52.44; 52.82 ] )

(* --- Table 7: lines of code --- *)

let count_lines path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

let component_loc files = List.fold_left (fun acc f -> acc + count_lines f) 0 files

(* Our files mapped onto the paper's four components. *)
let loc_components =
  [
    ( "OpenMP to HLS dialect (this work)",
      2363,
      [ "lib/dialects/omp.ml"; "lib/dialects/device.ml";
        "lib/passes/lower_omp_data.ml"; "lib/passes/lower_omp_target.ml";
        "lib/passes/split_modules.ml"; "lib/passes/lower_omp_to_hls.ml";
        "lib/passes/pipeline.ml" ] );
    ( "HLS dialect and lowering from [20]",
      2382,
      [ "lib/dialects/hls.ml"; "lib/passes/hls_to_func.ml";
        "lib/hlsim/schedule.ml"; "lib/hlsim/synth.ml" ] );
    ( "Integrating LLVM and AMD HLS backend [19]",
      1654,
      [ "lib/passes/core_to_llvm.ml"; "lib/codegen/llvm_ir.ml";
        "lib/codegen/llvm_downgrade.ml"; "lib/codegen/hls_intrinsics.ml" ] );
    ( "Lowering from HLFIR & FIR to core dialects [3]",
      5956,
      [ "lib/fortran/ast.ml"; "lib/fortran/src_lexer.ml";
        "lib/fortran/src_parser.ml"; "lib/fortran/omp_parser.ml";
        "lib/fortran/sema.ml"; "lib/fortran/lower_fir.ml";
        "lib/fortran/fir_to_core.ml"; "lib/fortran/frontend.ml" ] );
  ]

let table7 () =
  header "Table 7: lines of code per component (paper vs this reproduction)";
  pp_row "Component" [ "paper LoC"; "this repo" ];
  List.iter
    (fun (name, paper_loc, files) ->
      let ours = component_loc files in
      Fmt.pr "%-48s %10d %10s@." name paper_loc
        (if ours = 0 then "(n/a)" else string_of_int ours))
    loc_components

(* --- Figures 1 and 2: compilation flow traces --- *)

let dialect_census m =
  let tbl = Hashtbl.create 8 in
  Ftn_ir.Op.walk
    (fun o ->
      let d = Ftn_ir.Op.dialect o in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    m;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (k, v) -> Fmt.str "%s:%d" k v)
  |> String.concat " "

let figure1 () =
  header
    "Figure 1: lowering Flang output (FIR) to core dialects and LLVM-IR \
     (flow of [3]), traced on SAXPY";
  let src = Ftn_linpack.Fortran_sources.saxpy ~n:1024 in
  let fir = Ftn_frontend.Frontend.to_fir src in
  Fmt.pr "  Fortran source            %d lines@."
    (List.length (String.split_on_char '\n' src));
  Fmt.pr "  | flang: parse + lower@.";
  Fmt.pr "  v@.";
  Fmt.pr "  HLFIR/FIR + omp           [%s]@." (dialect_census fir);
  Fmt.pr "  | fir-to-core [3]@.";
  Fmt.pr "  v@.";
  let core = Ftn_frontend.Fir_to_core.run fir in
  Fmt.pr "  core dialects + omp       [%s]@." (dialect_census core);
  Fmt.pr "  | mlir-opt -> llvm dialect -> LLVM-IR (device path)@.";
  Fmt.pr "  v@.";
  let art = Core.Compiler.compile src in
  match art.Core.Compiler.llvm_ir with
  | Some t ->
    Fmt.pr "  LLVM-IR                   %d lines@."
      (List.length (String.split_on_char '\n' t))
  | None -> ()

let figure2 () =
  header
    "Figure 2: full compilation flow, Fortran + OpenMP to host binary and \
     FPGA bitstream";
  let src = Ftn_linpack.Fortran_sources.saxpy ~n:1024 in
  let art = Core.Compiler.compile src in
  let stage name m = Fmt.pr "  %-26s [%s]@." name (dialect_census m) in
  stage "1. FIR + omp (Flang)" art.Core.Compiler.fir_module;
  stage "2. core + omp ([3])" art.Core.Compiler.core_module;
  stage "3. +device dialect" art.Core.Compiler.combined;
  Fmt.pr "     | split host / device@.";
  stage "4a. host module" art.Core.Compiler.host;
  (match art.Core.Compiler.host_cpp with
  | Some cpp ->
    Fmt.pr "      -> C++ with OpenCL     %d lines@."
      (List.length (String.split_on_char '\n' cpp))
  | None -> ());
  (match art.Core.Compiler.device_hls with
  | Some d -> stage "4b. device module (hls)" d
  | None -> ());
  (match art.Core.Compiler.device_llvm with
  | Some d -> stage "5.  llvm dialect" d
  | None -> ());
  (match art.Core.Compiler.llvm_ir_downgraded with
  | Some t ->
    Fmt.pr "  6.  LLVM-7 IR for Vitis    %d lines@."
      (List.length (String.split_on_char '\n' t))
  | None -> ());
  let bs = Core.Compiler.synthesise art in
  Fmt.pr "  7.  v++ (simulated)        -> %s, %d kernel(s)@."
    bs.Bitstream.xclbin_name
    (List.length bs.Bitstream.kernels);
  Fmt.pr "@.  pass pipeline timing:@.";
  List.iter
    (fun s -> Fmt.pr "    %a@." Ftn_ir.Pass.pp_stage s)
    art.Core.Compiler.stages

(* --- Ablations: the design choices DESIGN.md calls out --- *)

(* Ablation A: the unroll-vs-RMW-chain mechanism that makes SAXPY sustain
   ~32 cycles/element while SGESL pays the full AXI round trip. Sweeps the
   simd factor with the design-space explorer. *)
let ablation_unroll () =
  header
    "Ablation A: unroll factor vs initiation interval (design-space      exploration over simdlen)";
  let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:1024) in
  match art.Core.Compiler.device_hls with
  | None -> ()
  | Some d ->
    let fn =
      List.find
        (fun o ->
          Ftn_dialects.Func_d.is_func o && Ftn_dialects.Func_d.has_body o)
        (Ftn_ir.Op.module_body d)
    in
    let ks = Schedule.analyse_kernel spec fn in
    (match Dse.explore_kernel ~spec ~lut_budget:20_000 ks with
    | Some r -> Fmt.pr "%a" Dse.pp r
    | None -> Fmt.pr "  (no pipelined loop)@.");
    Fmt.pr
      "  -> below the crossover the un-disambiguated read-modify-write        chain@.     (%d cycles) dominates; above it the m_axi port        serialisation takes@.     over and cycles/iteration stop improving.@."
      spec.Fpga_spec.rmw_chain_cycles

(* Ablation B: MAC fusion on/off — the Table 4 divergence isolated. *)
let ablation_mac_fusion () =
  header "Ablation B: backend MAC pattern fusion (frontend idiom sensitivity)";
  let device = Ftn_linpack.Hls_baselines.sgesl_device ~n:64 in
  let fn =
    List.find
      (fun o ->
        Ftn_dialects.Func_d.is_func o && Ftn_dialects.Func_d.has_body o)
      (Ftn_ir.Op.module_body device)
  in
  let ks = Schedule.analyse_kernel spec fn in
  List.iter
    (fun frontend ->
      let r = Resources.estimate ~frontend spec ks in
      Fmt.pr "  %-18s %a@."
        (Resources.string_of_frontend frontend)
        Resources.pp r)
    [ Resources.Clang_hls; Resources.Mlir_flow ];
  Fmt.pr
    "  -> the same kernel structure costs %d DSPs with Clang-shaped IR and@.    \     0 DSPs (LUT-built MAC) through the MLIR flow, as in Table 4.@."
    spec.Fpga_spec.dsp_fused_mac

(* Ablation C: launch-overhead sensitivity for the per-iteration-offload
   SGESL pattern. *)
let ablation_launch_overhead () =
  header
    "Ablation C: kernel-launch overhead sensitivity (SGESL offloads one      kernel per outer iteration)";
  let n = if quick then 128 else 512 in
  List.iter
    (fun overhead_us ->
      let spec' =
        {
          spec with
          Fpga_spec.kernel_launch_overhead_s = overhead_us *. 1e-6;
        }
      in
      let run =
        Core.Run.run
          ~options:
            { Core.Options.default with
              Core.Options.backend = Ftn_backend.Backend_vitis.make ~spec:spec' ()
            }
          (Ftn_linpack.Fortran_sources.sgesl ~n)
      in
      Fmt.pr "  launch overhead %6.1f us -> total %8.3f ms (%d launches)@."
        overhead_us
        (Core.Run.device_time run *. 1e3)
        run.Core.Run.exec.Executor.kernel_launches)
    [ 1.0; 10.0; 100.0; 1000.0 ];
  Fmt.pr
    "  -> per-iteration offload amplifies every microsecond of launch cost      by N-1.@."

(* Ablation D: what the canonicaliser buys on the device side. *)
let ablation_canonicalise () =
  header "Ablation D: canonicalisation of the offloaded kernel";
  let src = Ftn_linpack.Fortran_sources.saxpy ~n:1024 in
  let core = Ftn_frontend.Frontend.to_core src in
  let with_canon =
    Ftn_passes.Pipeline.run_mid_end ~to_llvm:false core
  in
  let without_canon =
    Ftn_passes.Pipeline.run_mid_end
      ~options:
        { Ftn_passes.Pipeline.default_options with
          Ftn_passes.Pipeline.canonicalize = false }
      ~to_llvm:false core
  in
  let ops label r =
    match r.Ftn_passes.Pipeline.device_hls with
    | Some d ->
      let loads = Ftn_ir.Op.count (fun o -> Ftn_ir.Op.name o = "memref.load") d in
      Fmt.pr "  %-22s %4d ops, %2d loads in kernel@." label
        (Ftn_ir.Pass.count_ops d) loads
    | None -> ()
  in
  ops "with canonicalise" with_canon;
  ops "without canonicalise" without_canon;
  Fmt.pr
    "  -> store-to-load forwarding removes the loop-variable round trips@.";
  Fmt.pr "     that would otherwise appear as loop-carried memory dependences@.";
  Fmt.pr "     to HLS (the paper's simple canonicalisation).@."

(* Ablation E: burst inference — the memory optimisation the paper's
   future work anticipates, modelled by coalescing contiguous accesses and
   disambiguating the read/write streams. *)
let ablation_burst () =
  header
    "Ablation E: AXI burst inference (the paper's future-work memory \
     optimisation)";
  let n = if quick then 10_000 else 100_000 in
  List.iter
    (fun burst ->
      let spec' = { spec with Fpga_spec.burst_inference = burst } in
      let run =
        Core.Run.run
          ~options:
            { Core.Options.default with
              Core.Options.backend = Ftn_backend.Backend_vitis.make ~spec:spec' ()
            }
          (Ftn_linpack.Fortran_sources.saxpy ~n)
      in
      Fmt.pr "  saxpy N=%d, burst %-3s -> kernel %8.3f ms@." n
        (if burst then "on" else "off")
        (Core.Run.kernel_time run *. 1e3))
    [ false; true ];
  let n2 = if quick then 64 else 256 in
  List.iter
    (fun burst ->
      let spec' = { spec with Fpga_spec.burst_inference = burst } in
      let run =
        Core.Run.run
          ~options:
            { Core.Options.default with
              Core.Options.backend = Ftn_backend.Backend_vitis.make ~spec:spec' ()
            }
          (Ftn_linpack.Fortran_sources.sgesl ~n:n2)
      in
      Fmt.pr "  sgesl N=%d, burst %-3s  -> total  %8.3f ms@." n2
        (if burst then "on" else "off")
        (Core.Run.device_time run *. 1e3))
    [ false; true ];
  Fmt.pr
    "  -> bursting removes both the per-beat AXI cost and the RMW chain:@.";
  Fmt.pr
    "     the un-optimised flows of the paper leave roughly an order of@.";
  Fmt.pr "     magnitude of kernel time on the table.@."

(* --- BENCH_obs.json: observability export for the two benchmark codes.
   Each case runs inside its own span collector so the per-stage compile
   times (wall-clock spans) and the executor breakdown (simulated device
   timeline) are captured side by side, plus the global metrics registry. *)

let obs_case name src =
  progress "  obs capture: %s ..." name;
  let open Ftn_obs in
  let c = Span.create () in
  let run = Span.with_collector c (fun () -> Core.Run.run src) in
  let exec = run.Core.Run.exec in
  let span_obj (sp : Span.span) =
    Json.Obj
      ([ ("name", Json.String sp.Span.name);
         ("dur_s", Json.Float sp.Span.dur_s) ]
      @
      match sp.Span.parent with
      | Some p -> [ ("parent", Json.Int p) ]
      | None -> [])
  in
  let wall, sim =
    List.partition
      (fun (sp : Span.span) -> sp.Span.clock = Span.Wall)
      (Span.spans c)
  in
  ( name,
    Json.Obj
      [
        ("compile_spans", Json.List (List.map span_obj wall));
        ("device_spans", Json.Int (List.length sim));
        ( "executor",
          Json.Obj
            [
              ("device_time_s", Json.Float exec.Executor.device_time_s);
              ("kernel_time_s", Json.Float exec.Executor.kernel_time_s);
              ("transfer_time_s", Json.Float exec.Executor.transfer_time_s);
              ("overhead_time_s", Json.Float exec.Executor.overhead_time_s);
              ("kernel_launches", Json.Int exec.Executor.kernel_launches);
              ("bytes_transferred", Json.Int exec.Executor.bytes_transferred);
            ] );
      ] )

let obs_report () =
  header "Observability export (BENCH_obs.json)";
  let n_saxpy = if quick then 1_000 else 100_000 in
  let n_sgesl = if quick then 64 else 256 in
  let cases =
    [
      obs_case
        (Fmt.str "saxpy_n%d" n_saxpy)
        (Ftn_linpack.Fortran_sources.saxpy ~n:n_saxpy);
      obs_case
        (Fmt.str "sgesl_n%d" n_sgesl)
        (Ftn_linpack.Fortran_sources.sgesl ~n:n_sgesl);
    ]
  in
  let j =
    Ftn_obs.Json.Obj
      [
        ("benchmarks", Ftn_obs.Json.Obj cases);
        ("metrics", Ftn_obs.Metrics.to_json ());
      ]
  in
  Ftn_obs.Json.write_file "BENCH_obs.json" j;
  Fmt.pr "  wrote BENCH_obs.json@."

let stencil_source ~n ~steps = Ftn_linpack.Fortran_sources.stencil ~n ~steps

let median_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let canon_module = function
  | Some m -> Ftn_ir.Printer.to_string (fst (Ftn_ir.Op.renumber m))
  | None -> "<none>"

(* The three compiled artifacts, canonically renumbered so
   domain-count-dependent SSA numbering cannot mask structural identity. *)
let canon_compiled (c : Ftn_passes.Pipeline.compiled) =
  canon_module (Some c.Ftn_passes.Pipeline.host)
  ^ "\n====\n"
  ^ canon_module c.Ftn_passes.Pipeline.device_hls
  ^ "\n====\n"
  ^ canon_module c.Ftn_passes.Pipeline.device_llvm

(* --- BENCH_compile.json: domain-parallel compile pipeline gate.
   Compiles the many-kernel module with the legacy sequential pipeline
   and with the partitioned pipeline on 1, 2 and 4 domains, gating:
     - byte-identity of the canonically renumbered artifacts across all
       domain counts, and of domains>=1 vs renumber(sequential) — the
       determinism contract of Pass.run_pipeline_parallel;
     - program output under --compile-domains 4 equal to the legacy
       sequential path and the CPU interpreter reference;
     - >= 1.5x mid-end wall speedup of 4 domains over 1 domain — only
       enforced when the machine actually has >= 4 cores
       (Domain.recommended_domain_count); a 1-core CI container cannot
       speed anything up by parallelism, so there the speedup is
       recorded informationally and identity remains the hard gate.
   Also records a per-stage compile-time breakdown (SAXPY at production
   N and the many-kernel case) and prints per-stage wall deltas against
   the previous BENCH_compile.json, if one is on disk. *)

let options_with_domains domains =
  {
    Core.Options.default with
    Core.Options.pipeline =
      {
        Ftn_passes.Pipeline.default_options with
        Ftn_passes.Pipeline.domains;
      };
  }

let read_json_file path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Ftn_obs.Json.parse s with Ok j -> Some j | Error _ -> None
  end
  else None

let json_member key = function
  | Ftn_obs.Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let json_path keys j =
  List.fold_left
    (fun acc k -> Option.bind acc (json_member k))
    (Some j) keys

let json_float = function
  | Some (Ftn_obs.Json.Float f) -> Some f
  | Some (Ftn_obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let compile_report () =
  header "Compile pipeline comparison (BENCH_compile.json)";
  let mk_kernels = if quick then 12 else 32 in
  let mk_n = if quick then 512 else 4096 in
  let saxpy_n = if quick then 1_000_000 else 10_000_000 in
  let reps = if quick then 5 else 7 in
  let cores = Domain.recommended_domain_count () in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let mk_name = Fmt.str "many_kernels_k%d" mk_kernels in
  let src = Ftn_linpack.Fortran_sources.many_kernels ~kernels:mk_kernels ~n:mk_n in
  let core = Ftn_frontend.Frontend.to_core src in
  let mid domains =
    let options =
      {
        Ftn_passes.Pipeline.default_options with
        Ftn_passes.Pipeline.domains;
      }
    in
    Ftn_passes.Pipeline.run_mid_end ~options core
  in
  progress "  compile bench: %s identity ..." mk_name;
  let c0 = mid 0 and c1 = mid 1 and c2 = mid 2 and c4 = mid 4 in
  let k0 = canon_compiled c0
  and k1 = canon_compiled c1
  and k2 = canon_compiled c2
  and k4 = canon_compiled c4 in
  let id_12 = String.equal k1 k2 and id_14 = String.equal k1 k4 in
  let id_seq = String.equal k1 k0 in
  if not id_12 then fail "%s: domains=1 and domains=2 artifacts differ" mk_name;
  if not id_14 then fail "%s: domains=1 and domains=4 artifacts differ" mk_name;
  if not id_seq then
    fail "%s: parallel artifacts differ from the renumbered sequential output"
      mk_name;
  (* program output: full run through --compile-domains 4 vs the legacy
     sequential path and the CPU reference, at an interpretable size *)
  let run_src =
    Ftn_linpack.Fortran_sources.many_kernels ~kernels:mk_kernels
      ~n:(if quick then 128 else 256)
  in
  let out_par =
    Core.Run.output (Core.Run.run ~options:(options_with_domains 4) run_src)
  in
  let out_seq =
    Core.Run.output (Core.Run.run ~options:(options_with_domains 0) run_src)
  in
  let cpu_out, _ = Core.Run.run_cpu run_src in
  let output_ok = String.equal out_par out_seq && String.equal out_par cpu_out in
  if not (String.equal out_par out_seq) then
    fail "%s: --compile-domains 4 program output differs from sequential" mk_name;
  if not (String.equal out_par cpu_out) then
    fail "%s: program output differs from the CPU interpreter reference" mk_name;
  (* wall: median-of-reps mid-end per domain count *)
  let wall domains =
    ignore (mid domains);
    median_of
      (List.init reps (fun _ ->
           let t0 = Unix.gettimeofday () in
           ignore (mid domains);
           Unix.gettimeofday () -. t0))
  in
  progress "  compile bench: %s wall ..." mk_name;
  let w0 = wall 0 and w1 = wall 1 and w2 = wall 2 and w4 = wall 4 in
  let speedup = w1 /. Float.max 1e-9 w4 in
  let speedup_gated = cores >= 4 in
  if speedup_gated && speedup < 1.5 then
    fail
      "%s: 4-domain mid-end wall speedup %.2fx is below the 1.5x target on a \
       %d-core machine"
      mk_name speedup cores;
  Fmt.pr
    "  %-20s seq %6.2f ms | d1 %6.2f ms | d2 %6.2f ms | d4 %6.2f ms | %.2fx \
     d4-vs-d1 (%d cores%s)@."
    mk_name (w0 *. 1e3) (w1 *. 1e3) (w2 *. 1e3) (w4 *. 1e3) speedup cores
    (if speedup_gated then ", gated >= 1.5x" else ", speedup informational");
  (* per-stage compile-time breakdown; a pass name recurring across the
     host and device pipelines (canonicalize) gets a #k suffix so the
     object keys — and the regression lookup below — stay unique *)
  let stage_obj (c : Ftn_passes.Pipeline.compiled) =
    let seen = Hashtbl.create 8 in
    Ftn_obs.Json.Obj
      (List.filter_map
         (fun (s : Ftn_ir.Pass.stage_record) ->
           if String.equal s.Ftn_ir.Pass.stage_name "input" then None
           else begin
             let n =
               1
               + Option.value ~default:0
                   (Hashtbl.find_opt seen s.Ftn_ir.Pass.stage_name)
             in
             Hashtbl.replace seen s.Ftn_ir.Pass.stage_name n;
             let key =
               if n = 1 then s.Ftn_ir.Pass.stage_name
               else Fmt.str "%s#%d" s.Ftn_ir.Pass.stage_name n
             in
             Some (key, Ftn_obs.Json.Float (s.Ftn_ir.Pass.elapsed_s *. 1e3))
           end)
         c.Ftn_passes.Pipeline.stages)
  in
  let saxpy_name = Fmt.str "saxpy_n%d" saxpy_n in
  progress "  compile bench: %s stages ..." saxpy_name;
  let saxpy_compiled =
    Ftn_passes.Pipeline.run_mid_end
      (Ftn_frontend.Frontend.to_core
         (Ftn_linpack.Fortran_sources.saxpy ~n:saxpy_n))
  in
  (* regression summary: per-stage wall deltas vs the previous report *)
  let previous = read_json_file "BENCH_compile.json" in
  let report_stage_deltas case_name stages_json =
    match previous with
    | None -> ()
    | Some prev ->
      (match stages_json with
      | Ftn_obs.Json.Obj stages ->
        List.iter
          (fun (stage, v) ->
            match
              ( json_float (Some v),
                json_float
                  (json_path [ "cases"; case_name; "stages"; stage ] prev) )
            with
            | Some now, Some before when before > 1e-9 ->
              let delta = (now -. before) /. before *. 100.0 in
              if Float.abs delta >= 1.0 then
                Fmt.pr "    %s/%s: %.2f -> %.2f ms (%+.0f%%)@." case_name
                  stage before now delta
            | _ -> ())
          stages
      | _ -> ())
  in
  let saxpy_stages = stage_obj saxpy_compiled in
  let mk_stages = stage_obj c1 in
  if previous <> None then
    Fmt.pr "  per-stage wall deltas vs previous BENCH_compile.json:@.";
  report_stage_deltas saxpy_name saxpy_stages;
  report_stage_deltas mk_name mk_stages;
  let j =
    Ftn_obs.Json.Obj
      [
        ("cores", Ftn_obs.Json.Int cores);
        ( "cases",
          Ftn_obs.Json.Obj
            [
              ( mk_name,
                Ftn_obs.Json.Obj
                  [
                    ("kernels", Ftn_obs.Json.Int mk_kernels);
                    ("reps", Ftn_obs.Json.Int reps);
                    ( "identity",
                      Ftn_obs.Json.Obj
                        [
                          ("domains_1_vs_2", Ftn_obs.Json.Bool id_12);
                          ("domains_1_vs_4", Ftn_obs.Json.Bool id_14);
                          ("parallel_vs_sequential", Ftn_obs.Json.Bool id_seq);
                          ("program_output", Ftn_obs.Json.Bool output_ok);
                        ] );
                    ( "wall_ms",
                      Ftn_obs.Json.Obj
                        [
                          ("sequential", Ftn_obs.Json.Float (w0 *. 1e3));
                          ("domains_1", Ftn_obs.Json.Float (w1 *. 1e3));
                          ("domains_2", Ftn_obs.Json.Float (w2 *. 1e3));
                          ("domains_4", Ftn_obs.Json.Float (w4 *. 1e3));
                        ] );
                    ("speedup_domains_4_vs_1", Ftn_obs.Json.Float speedup);
                    ("speedup_target", Ftn_obs.Json.Float 1.5);
                    ("speedup_gated", Ftn_obs.Json.Bool speedup_gated);
                    ("stages", mk_stages);
                  ] );
              ( saxpy_name,
                Ftn_obs.Json.Obj [ ("stages", saxpy_stages) ] );
            ] );
      ]
  in
  Ftn_obs.Json.write_file "BENCH_compile.json" j;
  Fmt.pr "  wrote BENCH_compile.json@.";
  if !failures <> [] then begin
    List.iter
      (fun s -> Fmt.epr "compile bench FAILED: %s@." s)
      (List.rev !failures);
    exit 1
  end

(* --- BENCH_interp.json: tree-walking vs closure-compiled interpreter.
   Compiles and synthesises SGESL and the heat-diffusion stencil once,
   then executes the host program against the bitstream under each
   engine, measuring wall time, steps/second, minor-heap words per step
   (reported, not gated) and (for the compiled engine) closure-compilation
   time. The run is also a sanity gate: it exits nonzero unless both
   engines produce byte-identical output, identical simulated device
   times, identical step counts, and the compiled engine is at least 3x
   faster. *)

type interp_measurement = {
  im_wall_s : float;  (** Best-of-reps executor wall time. *)
  im_steps : int;
  im_compile_ms : float;  (** Closure-compilation time, first rep. *)
  im_words_per_step : float;  (** Minor-heap words per step, first rep. *)
  im_output : string;
  im_device_time_s : float;
}

let hist_sum name =
  match Ftn_obs.Metrics.find name with
  | Some (Ftn_obs.Metrics.Histogram_v { sum; _ }) -> sum
  | _ -> 0.0

let measure_interp engine ~host ~bitstream ~reps =
  let open Ftn_obs in
  (* earlier report phases leave the major heap in an arbitrary state;
     compact so the engine comparison isn't skewed by whose allocations
     happen to trigger a major slice *)
  Gc.compact ();
  let best = ref infinity in
  let steps = ref 0 in
  let compile_ms = ref 0.0 in
  let words = ref 0.0 in
  let last = ref None in
  for rep = 1 to reps do
    (* collect the previous rep's garbage outside the clock so major-GC
       work isn't attributed to whichever engine runs next *)
    Gc.full_major ();
    let s0 = Metrics.counter_value "interp.steps" in
    let c0 = hist_sum "interp.compile_ms" in
    let sp = ref None in
    let w0 = Gc.minor_words () in
    let r =
      Span.with_span_sp ~name:"bench.interp" (fun s ->
          sp := Some s;
          Executor.run ~engine ~host ~bitstream ())
    in
    let w = Gc.minor_words () -. w0 in
    let wall = match !sp with Some s -> s.Span.dur_s | None -> 0.0 in
    if wall < !best then best := wall;
    if rep = 1 then begin
      steps := Metrics.counter_value "interp.steps" - s0;
      compile_ms := hist_sum "interp.compile_ms" -. c0;
      words := w
    end;
    last := Some r
  done;
  let r = Option.get !last in
  {
    im_wall_s = !best;
    im_steps = !steps;
    im_compile_ms = !compile_ms;
    im_words_per_step = !words /. float_of_int (max 1 !steps);
    im_output = r.Executor.output;
    im_device_time_s = r.Executor.device_time_s;
  }

let interp_report () =
  header "Interpreter engine comparison (BENCH_interp.json)";
  let n_sgesl = if quick then 64 else 256 in
  let stencil_n = if quick then 64 else 128 in
  let cases =
    [
      (Fmt.str "sgesl_n%d" n_sgesl, Ftn_linpack.Fortran_sources.sgesl ~n:n_sgesl);
      ( Fmt.str "stencil_n%d" stencil_n,
        stencil_source ~n:stencil_n ~steps:(if quick then 5 else 10) );
    ]
  in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let case_json (name, src) =
    progress "  interp bench: %s ..." name;
    let art = Core.Compiler.compile src in
    let bitstream = Core.Compiler.synthesise art in
    let host = art.Core.Compiler.host in
    let reps = 5 in
    let tree = ref (measure_interp `Tree ~host ~bitstream ~reps) in
    let comp = ref (measure_interp `Compiled ~host ~bitstream ~reps) in
    (* On a loaded box one engine can miss its wall floor within a
       single round (a preemption lands on all its reps). Extra rounds
       only lower both best-of minima, so they converge on the true
       ratio: if the speedup genuinely regressed below the gate the
       retries cannot mask it, they just spend a few more ms on it. *)
    let extra = ref 6 in
    while
      !tree.im_wall_s /. Float.max 1e-9 !comp.im_wall_s < 3.0 && !extra > 0
    do
      decr extra;
      let t = measure_interp `Tree ~host ~bitstream ~reps in
      let c = measure_interp `Compiled ~host ~bitstream ~reps in
      if t.im_wall_s < !tree.im_wall_s then
        tree := { !tree with im_wall_s = t.im_wall_s };
      if c.im_wall_s < !comp.im_wall_s then
        comp := { !comp with im_wall_s = c.im_wall_s }
    done;
    let tree = !tree and comp = !comp in
    if not (String.equal tree.im_output comp.im_output) then
      fail "%s: tree and compiled outputs differ" name;
    if tree.im_device_time_s <> comp.im_device_time_s then
      fail "%s: simulated device times differ between engines" name;
    if tree.im_steps <> comp.im_steps then
      fail "%s: step counts differ (%d tree, %d compiled)" name tree.im_steps
        comp.im_steps;
    let speedup = tree.im_wall_s /. Float.max 1e-9 comp.im_wall_s in
    if speedup < 3.0 then
      fail "%s: compiled engine only %.2fx faster than the tree walker (< 3x)"
        name speedup;
    let steps_per_sec m =
      float_of_int m.im_steps /. Float.max 1e-9 m.im_wall_s
    in
    Fmt.pr
      "  %-16s tree %8.2f ms (%11.0f steps/s, %5.2f words/step) | compiled \
       %8.2f ms (%11.0f steps/s, %5.2f words/step, compile %5.2f ms) | \
       %5.2fx@."
      name
      (tree.im_wall_s *. 1e3)
      (steps_per_sec tree) tree.im_words_per_step
      (comp.im_wall_s *. 1e3)
      (steps_per_sec comp) comp.im_words_per_step comp.im_compile_ms speedup;
    let side m =
      Ftn_obs.Json.Obj
        [
          ("wall_s", Ftn_obs.Json.Float m.im_wall_s);
          ("steps", Ftn_obs.Json.Int m.im_steps);
          ("steps_per_sec", Ftn_obs.Json.Float (steps_per_sec m));
          ("compile_ms", Ftn_obs.Json.Float m.im_compile_ms);
          ("minor_words_per_step", Ftn_obs.Json.Float m.im_words_per_step);
          ("device_time_s", Ftn_obs.Json.Float m.im_device_time_s);
        ]
    in
    ( name,
      Ftn_obs.Json.Obj
        [
          ("tree", side tree);
          ("compiled", side comp);
          ("speedup", Ftn_obs.Json.Float speedup);
          ( "outputs_identical",
            Ftn_obs.Json.Bool (String.equal tree.im_output comp.im_output) );
          ( "device_time_identical",
            Ftn_obs.Json.Bool (tree.im_device_time_s = comp.im_device_time_s)
          );
        ] )
  in
  let j =
    Ftn_obs.Json.Obj [ ("cases", Ftn_obs.Json.Obj (List.map case_json cases)) ]
  in
  Ftn_obs.Json.write_file "BENCH_interp.json" j;
  Fmt.pr "  wrote BENCH_interp.json@.";
  if !failures <> [] then begin
    List.iter
      (fun s -> Fmt.epr "interp bench FAILED: %s@." s)
      (List.rev !failures);
    exit 1
  end

(* --- BENCH_fault.json: fault-injection robustness comparison. Compiles
   and synthesises SGESL and the heat-diffusion stencil once, then
   executes the host program fault-free, under a transient fault plan
   covering every injection site, and under a persistent kernel fault
   that forces the CPU fallback. Records wall and simulated time, retry
   and injection counts and the fallback cost. The run is also a sanity
   gate: it exits nonzero unless both faulted outputs are byte-identical
   to the fault-free run, the transient run pays strictly more simulated
   time without degrading, and the persistent run completes degraded
   through the CPU fallback. *)

module Fault = Ftn_fault.Fault

type fault_measurement = {
  fm_wall_s : float;
  fm_result : Executor.result;
}

let measure_faulted ?faults ~host ~bitstream () =
  let open Ftn_obs in
  let sp = ref None in
  let r =
    Span.with_span_sp ~name:"bench.fault" (fun s ->
        sp := Some s;
        Executor.run ?faults
          ~diag:(Ftn_diag.Diag_engine.create ())
          ~host ~bitstream ())
  in
  {
    fm_wall_s = (match !sp with Some s -> s.Span.dur_s | None -> 0.0);
    fm_result = r;
  }

let fault_report () =
  header "Fault-injection robustness (BENCH_fault.json)";
  let n_sgesl = if quick then 64 else 256 in
  let stencil_n = if quick then 64 else 128 in
  let cases =
    [
      (Fmt.str "sgesl_n%d" n_sgesl, Ftn_linpack.Fortran_sources.sgesl ~n:n_sgesl);
      ( Fmt.str "stencil_n%d" stencil_n,
        stencil_source ~n:stencil_n ~steps:(if quick then 5 else 10) );
    ]
  in
  let transient_plan =
    match Fault.parse_plan "transfer:nth=1,alloc:nth=1,launch:nth=1,timeout:nth=2" with
    | Ok p -> p
    | Error msg -> Fmt.failwith "bad transient plan: %s" msg
  in
  let persistent_plan =
    match Fault.parse_plan "launch:nth=1:persistent" with
    | Ok p -> p
    | Error msg -> Fmt.failwith "bad persistent plan: %s" msg
  in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let case_json (name, src) =
    progress "  fault bench: %s ..." name;
    let art = Core.Compiler.compile src in
    let bitstream = Core.Compiler.synthesise art in
    let host = art.Core.Compiler.host in
    let clean = measure_faulted ~host ~bitstream () in
    let transient = measure_faulted ~faults:transient_plan ~host ~bitstream () in
    let persistent = measure_faulted ~faults:persistent_plan ~host ~bitstream () in
    let out m = m.fm_result.Executor.output in
    if not (String.equal (out clean) (out transient)) then
      fail "%s: transient-fault output differs from the fault-free run" name;
    if not (String.equal (out clean) (out persistent)) then
      fail "%s: persistent-fault output differs from the fault-free run" name;
    if transient.fm_result.Executor.faults_injected = 0 then
      fail "%s: the transient plan injected nothing" name;
    if transient.fm_result.Executor.degraded then
      fail "%s: transient faults must not degrade the run" name;
    if
      transient.fm_result.Executor.device_time_s
      <= clean.fm_result.Executor.device_time_s
    then
      fail "%s: recovery charged no simulated time" name;
    if not persistent.fm_result.Executor.degraded then
      fail "%s: the persistent kernel fault did not degrade the run" name;
    if persistent.fm_result.Executor.cpu_fallbacks < 1 then
      fail "%s: the persistent kernel fault never fell back to the CPU" name;
    Fmt.pr
      "  %-16s clean %8.3f ms sim | transient %8.3f ms sim, %d faults, %d \
       retries | persistent: %d cpu fallback(s), %.3f ms on host@."
      name
      (clean.fm_result.Executor.device_time_s *. 1e3)
      (transient.fm_result.Executor.device_time_s *. 1e3)
      transient.fm_result.Executor.faults_injected
      transient.fm_result.Executor.retries
      persistent.fm_result.Executor.cpu_fallbacks
      (persistent.fm_result.Executor.fallback_time_s *. 1e3);
    let side m =
      Ftn_obs.Json.Obj
        [
          ("wall_s", Ftn_obs.Json.Float m.fm_wall_s);
          ("device_time_s", Ftn_obs.Json.Float m.fm_result.Executor.device_time_s);
          ( "fallback_time_s",
            Ftn_obs.Json.Float m.fm_result.Executor.fallback_time_s );
          ("faults_injected", Ftn_obs.Json.Int m.fm_result.Executor.faults_injected);
          ("retries", Ftn_obs.Json.Int m.fm_result.Executor.retries);
          ("cpu_fallbacks", Ftn_obs.Json.Int m.fm_result.Executor.cpu_fallbacks);
          ("degraded", Ftn_obs.Json.Bool m.fm_result.Executor.degraded);
        ]
    in
    ( name,
      Ftn_obs.Json.Obj
        [
          ("clean", side clean);
          ("transient", side transient);
          ("persistent", side persistent);
          ( "outputs_identical",
            Ftn_obs.Json.Bool
              (String.equal (out clean) (out transient)
              && String.equal (out clean) (out persistent)) );
        ] )
  in
  let j =
    Ftn_obs.Json.Obj
      [
        ("transient_plan", Ftn_obs.Json.String (Fault.plan_to_string transient_plan));
        ("persistent_plan", Ftn_obs.Json.String (Fault.plan_to_string persistent_plan));
        ("cases", Ftn_obs.Json.Obj (List.map case_json cases));
      ]
  in
  Ftn_obs.Json.write_file "BENCH_fault.json" j;
  Fmt.pr "  wrote BENCH_fault.json@.";
  if !failures <> [] then begin
    List.iter
      (fun s -> Fmt.epr "fault bench FAILED: %s@." s)
      (List.rev !failures);
    exit 1
  end

(* --- BENCH_sched.json: multi-device scheduler gate. Compiles a small
   SAXPY/SGESL mix once, then pushes 1000 concurrent jobs (4 tenants,
   sparse cross-tenant dependencies) through the job queue on 1 and on 4
   simulated devices, reporting throughput and p50/p99 tail latency. The
   run exits nonzero unless no job is dropped, the 4-device output is
   byte-identical to the 1-device baseline, total kernel/transfer
   sim-time matches across device counts (only queue wait and overhead
   may differ) and 4 devices beat 1 on makespan. Two fault runs gate the
   drain story: with device 1 persistently faulted all jobs must still
   complete by draining to healthy peers, and on a single faulted device
   by CPU fallback — both with unchanged output. *)

let sched_report () =
  header "Multi-device scheduler (BENCH_sched.json)";
  let n_jobs = 1000 in
  let n_fault_jobs = if quick then 120 else 240 in
  let variants =
    [|
      ("saxpy64", Ftn_linpack.Fortran_sources.saxpy ~n:64);
      ("saxpy100", Ftn_linpack.Fortran_sources.saxpy ~n:100);
      ("sgesl12", Ftn_linpack.Fortran_sources.sgesl ~n:12);
      ("sgesl20", Ftn_linpack.Fortran_sources.sgesl ~n:20);
    |]
  in
  progress "  compiling %d job variants ..." (Array.length variants);
  let compiled =
    Array.map
      (fun (name, src) ->
        let art = Core.Compiler.compile src in
        let bs = Core.Compiler.synthesise art in
        (name, art.Core.Compiler.host, bs))
      variants
  in
  let persistent_plan =
    match Fault.parse_plan "launch:nth=1:persistent" with
    | Ok p -> p
    | Error msg -> Fmt.failwith "bad persistent plan: %s" msg
  in
  (* A fresh spec list per queue run: job i runs variant i mod 4 under
     tenant t(i mod 4); every 7th job depends on the job 7 before it, so
     the DAG has cross-tenant edges without ever deadlocking. *)
  let specs n =
    List.init n (fun i ->
        let _vname, host, bs = compiled.(i mod Array.length compiled) in
        let deps =
          if i mod 7 = 0 && i >= 7 then [ Fmt.str "j%04d" (i - 7) ] else []
        in
        Jobs.job
          ~tenant:(Fmt.str "t%d" (i mod 4))
          ~deps
          ~name:(Fmt.str "j%04d" i)
          (fun ?faults ~sched ~device ~start_s () ->
            Executor.run ?faults ~sched ~device ~start_s ~host
              ~bitstream:bs ()))
  in
  let run_queue ?fault_device ~devices n =
    let config =
      {
        Jobs.default_config with
        Jobs.devices;
        queue_depth = 8;
        fault_device =
          Option.map (fun d -> (d, persistent_plan)) fault_device;
      }
    in
    Jobs.run ~config (specs n)
  in
  progress "  %d jobs on 1 device ..." n_jobs;
  let s1 = run_queue ~devices:1 n_jobs in
  progress "  %d jobs on 4 devices ..." n_jobs;
  let s4 = run_queue ~devices:4 n_jobs in
  progress "  %d jobs, clean fault baseline ..." n_fault_jobs;
  let sfb = run_queue ~devices:1 n_fault_jobs in
  progress "  %d jobs on 4 devices, device 1 persistently faulted ..."
    n_fault_jobs;
  let sdrain = run_queue ~devices:4 ~fault_device:1 n_fault_jobs in
  progress "  %d jobs on 1 faulted device (cpu fallback) ..." n_fault_jobs;
  let scpu = run_queue ~devices:1 ~fault_device:0 n_fault_jobs in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let close a b =
    Float.abs (a -. b)
    <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  in
  if s1.Jobs.jobs_dropped <> 0 || s4.Jobs.jobs_dropped <> 0 then
    fail "jobs were dropped (%d on 1 device, %d on 4)" s1.Jobs.jobs_dropped
      s4.Jobs.jobs_dropped;
  if s1.Jobs.jobs_run <> n_jobs || s4.Jobs.jobs_run <> n_jobs then
    fail "not all %d jobs completed (%d on 1 device, %d on 4)" n_jobs
      s1.Jobs.jobs_run s4.Jobs.jobs_run;
  if not (String.equal s1.Jobs.output s4.Jobs.output) then
    fail "4-device output differs from the 1-device baseline";
  if not (close s1.Jobs.total_kernel_s s4.Jobs.total_kernel_s) then
    fail "total kernel sim-time differs across device counts (%.9f vs %.9f)"
      s1.Jobs.total_kernel_s s4.Jobs.total_kernel_s;
  if not (close s1.Jobs.total_transfer_s s4.Jobs.total_transfer_s) then
    fail "total transfer sim-time differs across device counts (%.9f vs %.9f)"
      s1.Jobs.total_transfer_s s4.Jobs.total_transfer_s;
  let speedup =
    if s4.Jobs.elapsed_s > 0.0 then s1.Jobs.elapsed_s /. s4.Jobs.elapsed_s
    else 0.0
  in
  if speedup < 2.0 then
    fail "4 devices only %.2fx faster than 1 on makespan (< 2x)" speedup;
  if sdrain.Jobs.jobs_run <> n_fault_jobs || sdrain.Jobs.jobs_dropped <> 0
  then
    fail "faulted-device run lost jobs (%d run, %d dropped)"
      sdrain.Jobs.jobs_run sdrain.Jobs.jobs_dropped;
  if sdrain.Jobs.drained_jobs < 1 then
    fail "faulted-device run never drained to a peer";
  if
    not
      (List.exists
         (fun ds -> ds.Scheduler.ds_failed)
         (Scheduler.snapshot sdrain.Jobs.scheduler))
  then fail "no device was marked failed in the drain run";
  if not (String.equal sfb.Jobs.output sdrain.Jobs.output) then
    fail "drain run changed the output";
  if scpu.Jobs.jobs_run <> n_fault_jobs || scpu.Jobs.jobs_dropped <> 0 then
    fail "single-faulted-device run lost jobs (%d run, %d dropped)"
      scpu.Jobs.jobs_run scpu.Jobs.jobs_dropped;
  if scpu.Jobs.degraded_jobs < 1 then
    fail "single-faulted-device run never fell back to the CPU";
  if not (String.equal sfb.Jobs.output scpu.Jobs.output) then
    fail "cpu-fallback run changed the output";
  let line name (s : Jobs.stats) =
    Fmt.pr
      "  %-22s %5d jobs  makespan %9.3f ms  %9.0f jobs/s  p50 %8.3f us  \
       p99 %8.3f us  drained %d  degraded %d@."
      name s.Jobs.jobs_run
      (s.Jobs.elapsed_s *. 1e3)
      s.Jobs.throughput_jps
      (s.Jobs.p50_latency_s *. 1e6)
      (s.Jobs.p99_latency_s *. 1e6)
      s.Jobs.drained_jobs s.Jobs.degraded_jobs
  in
  line "1 device" s1;
  line "4 devices" s4;
  line "4 devices, dev1 bad" sdrain;
  line "1 device, dev0 bad" scpu;
  Fmt.pr "  makespan speedup 4/1: %.2fx; outputs byte-identical@." speedup;
  let stats_json (s : Jobs.stats) =
    Ftn_obs.Json.Obj
      [
        ("jobs_run", Ftn_obs.Json.Int s.Jobs.jobs_run);
        ("jobs_dropped", Ftn_obs.Json.Int s.Jobs.jobs_dropped);
        ("elapsed_s", Ftn_obs.Json.Float s.Jobs.elapsed_s);
        ("throughput_jobs_per_s", Ftn_obs.Json.Float s.Jobs.throughput_jps);
        ("p50_latency_s", Ftn_obs.Json.Float s.Jobs.p50_latency_s);
        ("p99_latency_s", Ftn_obs.Json.Float s.Jobs.p99_latency_s);
        ("total_kernel_s", Ftn_obs.Json.Float s.Jobs.total_kernel_s);
        ("total_transfer_s", Ftn_obs.Json.Float s.Jobs.total_transfer_s);
        ("degraded_jobs", Ftn_obs.Json.Int s.Jobs.degraded_jobs);
        ("drained_jobs", Ftn_obs.Json.Int s.Jobs.drained_jobs);
        ( "devices",
          Ftn_obs.Json.List
            (List.map
               (fun ds ->
                 Ftn_obs.Json.Obj
                   [
                     ("id", Ftn_obs.Json.Int ds.Scheduler.ds_id);
                     ("jobs", Ftn_obs.Json.Int ds.Scheduler.ds_jobs);
                     ("launches", Ftn_obs.Json.Int ds.Scheduler.ds_launches);
                     ("busy_s", Ftn_obs.Json.Float ds.Scheduler.ds_busy_s);
                     ( "makespan_s",
                       Ftn_obs.Json.Float ds.Scheduler.ds_makespan_s );
                     ("failed", Ftn_obs.Json.Bool ds.Scheduler.ds_failed);
                     ("degraded", Ftn_obs.Json.Bool ds.Scheduler.ds_degraded);
                   ])
               (Scheduler.snapshot s.Jobs.scheduler)) );
      ]
  in
  let j =
    Ftn_obs.Json.Obj
      [
        ("jobs", Ftn_obs.Json.Int n_jobs);
        ("fault_jobs", Ftn_obs.Json.Int n_fault_jobs);
        ("tenants", Ftn_obs.Json.Int 4);
        ("queue_depth", Ftn_obs.Json.Int 8);
        ( "fault_plan",
          Ftn_obs.Json.String (Fault.plan_to_string persistent_plan) );
        ("makespan_speedup_4v1", Ftn_obs.Json.Float speedup);
        ( "outputs_identical",
          Ftn_obs.Json.Bool (String.equal s1.Jobs.output s4.Jobs.output) );
        ("devices1", stats_json s1);
        ("devices4", stats_json s4);
        ("devices4_fault_device1", stats_json sdrain);
        ("devices1_fault_device0", stats_json scpu);
      ]
  in
  Ftn_obs.Json.write_file "BENCH_sched.json" j;
  Fmt.pr "  wrote BENCH_sched.json@.";
  if !failures <> [] then begin
    List.iter
      (fun s -> Fmt.epr "sched bench FAILED: %s@." s)
      (List.rev !failures);
    exit 1
  end

(* --- BENCH_chaos.json: resilience-layer soak gate. A seeded randomized
   fault campaign over a 1000-job multi-tenant DAG: ~12% of jobs carry a
   random transient fault (site drawn across transfer/alloc/launch/
   timeout), device 1 injects a persistent launch fault into everything
   placed on it (with drain disabled, so the circuit breaker — not the
   executor's one-shot drain — must take the board out), deadlines,
   tenant quotas and breakers are armed, and three poison jobs (a
   dependency cycle plus an unknown dependency) ride along. Gates:
   jobs_run + jobs_dropped + jobs_shed equals jobs submitted on every
   run; the chaos campaign is byte-identical across two runs with the
   same seed, with bounded, deterministic breaker trips; tail latency
   stays bounded relative to the clean baseline; and with no faults or
   quotas configured the resilience layer is fully transparent — output
   and makespan byte-identical to a default-config run. *)

let chaos_report () =
  header "Chaos soak: resilience layer (BENCH_chaos.json)";
  let n_base = 1000 in
  let seed = 42 in
  let variants =
    [|
      ("saxpy64", Ftn_linpack.Fortran_sources.saxpy ~n:64);
      ("saxpy100", Ftn_linpack.Fortran_sources.saxpy ~n:100);
      ("sgesl12", Ftn_linpack.Fortran_sources.sgesl ~n:12);
      ("sgesl20", Ftn_linpack.Fortran_sources.sgesl ~n:20);
    |]
  in
  progress "  compiling %d job variants ..." (Array.length variants);
  let compiled =
    Array.map
      (fun (name, src) ->
        let art = Core.Compiler.compile src in
        let bs = Core.Compiler.synthesise art in
        (name, art.Core.Compiler.host, bs))
      variants
  in
  let persistent_plan =
    match Fault.parse_plan "launch:nth=1:persistent" with
    | Ok p -> p
    | Error msg -> Fmt.failwith "bad persistent plan: %s" msg
  in
  (* No drain: the sick board stays in rotation until its breaker trips,
     which is exactly what this gate is about. *)
  let chaos_retry = { Fault.default_retry with Fault.drain = false } in
  let transient_kinds =
    [|
      Fault.Transfer_error; Fault.Alloc_failure; Fault.Launch_failure;
      Fault.Kernel_timeout;
    |]
  in
  (* Job list: job i runs variant i mod 4 under tenant t(i mod 4) at
     priority i mod 3; every 7th job depends on the job 7 before it. In
     chaos mode a seeded rng sprinkles transient single-shot faults over
     ~12% of the jobs and appends three poison jobs: a dependency cycle
     and an unknown dependency, which must be dropped with diagnostics,
     not lost. *)
  let specs ~chaos () =
    let rng = Random.State.make [| seed |] in
    let base =
      List.init n_base (fun i ->
          let _vname, host, bs = compiled.(i mod Array.length compiled) in
          let deps =
            if i mod 7 = 0 && i >= 7 then [ Fmt.str "c%04d" (i - 7) ] else []
          in
          let transient =
            if chaos && Random.State.int rng 100 < 12 then
              Some
                (Fault.plan ~seed:(seed + i)
                   [
                     Fault.rule
                       transient_kinds.(Random.State.int rng
                                          (Array.length transient_kinds))
                       (Fault.Nth 1);
                   ])
            else None
          in
          Jobs.job
            ~tenant:(Fmt.str "t%d" (i mod 4))
            ~deps ~prio:(i mod 3)
            ~name:(Fmt.str "c%04d" i)
            (fun ?faults ~sched ~device ~start_s () ->
              let faults =
                match faults with Some _ as f -> f | None -> transient
              in
              Executor.run ?faults ~retry:chaos_retry ~sched ~device
                ~start_s ~host ~bitstream:bs ()))
    in
    if not chaos then base
    else begin
      let _vname, host, bs = compiled.(0) in
      let poison ~tenant ~deps name =
        Jobs.job ~tenant ~deps ~name
          (fun ?faults ~sched ~device ~start_s () ->
            Executor.run ?faults ~retry:chaos_retry ~sched ~device ~start_s
              ~host ~bitstream:bs ())
      in
      base
      @ [
          poison ~tenant:"t2" ~deps:[ "cyc_b" ] "cyc_a";
          poison ~tenant:"t2" ~deps:[ "cyc_a" ] "cyc_b";
          poison ~tenant:"t3" ~deps:[ "no_such_job" ] "orphan";
        ]
    end
  in
  let n_chaos = n_base + 3 in
  let deadline_s = 0.05 and slo_s = 0.005 in
  let clean_config =
    { Jobs.default_config with Jobs.devices = 4; queue_depth = 8 }
  in
  (* Every resilience feature armed but none able to trigger on a clean
     run: the transparency gate below insists this changes nothing. *)
  let transparent_config =
    {
      clean_config with
      Jobs.default_deadline_s = Some 1e6;
      tenant_quota = Some n_base;
      slo_s = Some 1e6;
      breaker = Some Breaker.default_config;
      shed_watermark = Some (10 * n_base);
    }
  in
  let chaos_config =
    {
      Jobs.devices = 4;
      queue_depth = 8;
      fault_device = Some (1, persistent_plan);
      default_deadline_s = Some deadline_s;
      tenant_quota = Some 16;
      tenant_share = None;
      slo_s = Some slo_s;
      breaker = Some Breaker.default_config;
      shed_watermark = Some (2 * n_chaos);
    }
  in
  progress "  %d clean jobs, resilience off ..." n_base;
  let baseline = Jobs.run ~config:clean_config (specs ~chaos:false ()) in
  progress "  %d clean jobs, resilience armed (transparency) ..." n_base;
  let transparent =
    Jobs.run ~config:transparent_config (specs ~chaos:false ())
  in
  progress "  %d jobs, chaos campaign, run 1 ..." n_chaos;
  let diag1 = Ftn_diag.Diag_engine.create () in
  let chaos1 = Jobs.run ~config:chaos_config ~diag:diag1 (specs ~chaos:true ()) in
  progress "  %d jobs, chaos campaign, run 2 (same seed) ..." n_chaos;
  let diag2 = Ftn_diag.Diag_engine.create () in
  let chaos2 = Jobs.run ~config:chaos_config ~diag:diag2 (specs ~chaos:true ()) in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let close a b =
    Float.abs (a -. b)
    <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  in
  (* Gate 1: job conservation on every run. *)
  let conserve name n (s : Jobs.stats) =
    if s.Jobs.jobs_run + s.Jobs.jobs_dropped + s.Jobs.jobs_shed <> n then
      fail "%s: %d run + %d dropped + %d shed <> %d submitted" name
        s.Jobs.jobs_run s.Jobs.jobs_dropped s.Jobs.jobs_shed n
  in
  conserve "baseline" n_base baseline;
  conserve "transparent" n_base transparent;
  conserve "chaos1" n_chaos chaos1;
  conserve "chaos2" n_chaos chaos2;
  (* Gate 2: the armed-but-idle resilience layer is transparent. *)
  if not (String.equal baseline.Jobs.output transparent.Jobs.output) then
    fail "resilience-armed clean run changed the output bytes";
  if baseline.Jobs.jobs_run <> transparent.Jobs.jobs_run then
    fail "resilience-armed clean run changed jobs_run (%d vs %d)"
      baseline.Jobs.jobs_run transparent.Jobs.jobs_run;
  if not (close baseline.Jobs.elapsed_s transparent.Jobs.elapsed_s) then
    fail "resilience-armed clean run changed the makespan (%.9f vs %.9f)"
      baseline.Jobs.elapsed_s transparent.Jobs.elapsed_s;
  if transparent.Jobs.jobs_shed <> 0 then
    fail "clean run shed %d jobs" transparent.Jobs.jobs_shed;
  if List.exists (fun b -> b.Breaker.bk_trips > 0) transparent.Jobs.breakers
  then fail "clean run tripped a breaker";
  if transparent.Jobs.slo_violations <> 0 then
    fail "clean run recorded %d slo violations with a 1e6 s objective"
      transparent.Jobs.slo_violations;
  (* Gate 3: the chaos campaign is deterministic under its seed. *)
  if not (String.equal chaos1.Jobs.output chaos2.Jobs.output) then
    fail "chaos runs with the same seed produced different output bytes";
  if
    chaos1.Jobs.jobs_run <> chaos2.Jobs.jobs_run
    || chaos1.Jobs.jobs_dropped <> chaos2.Jobs.jobs_dropped
    || chaos1.Jobs.jobs_shed <> chaos2.Jobs.jobs_shed
  then
    fail "chaos runs with the same seed disagree (%d/%d/%d vs %d/%d/%d)"
      chaos1.Jobs.jobs_run chaos1.Jobs.jobs_dropped chaos1.Jobs.jobs_shed
      chaos2.Jobs.jobs_run chaos2.Jobs.jobs_dropped chaos2.Jobs.jobs_shed;
  if not (close chaos1.Jobs.elapsed_s chaos2.Jobs.elapsed_s) then
    fail "chaos runs with the same seed disagree on makespan";
  let trips (s : Jobs.stats) =
    List.map (fun b -> (b.Breaker.bk_device, b.Breaker.bk_trips)) s.Jobs.breakers
  in
  if trips chaos1 <> trips chaos2 then
    fail "chaos runs with the same seed disagree on breaker trips";
  (* Gate 4: breaker trips are present and bounded. *)
  let total_trips =
    List.fold_left (fun acc (_, t) -> acc + t) 0 (trips chaos1)
  in
  if total_trips < 1 then
    fail "the persistently faulted device never tripped its breaker";
  List.iter
    (fun (d, t) ->
      if t > Breaker.default_config.Breaker.flap_limit then
        fail "device %d tripped %d times (> flap limit %d)" d t
          Breaker.default_config.Breaker.flap_limit)
    (trips chaos1);
  (* Gate 5: the poison jobs are dropped with diagnostics, not lost. *)
  if chaos1.Jobs.jobs_dropped <> 3 then
    fail "expected the 3 poison jobs dropped, got %d" chaos1.Jobs.jobs_dropped;
  if Ftn_diag.Diag_engine.warning_count diag1 < 3 then
    fail "dropped jobs emitted %d warnings (want >= 3)"
      (Ftn_diag.Diag_engine.warning_count diag1);
  (* Gate 6: tail latency stays bounded — within the deadline plus the
     service tail of a clean run (faults inflate service time, but the
     admission wait beyond the deadline is shed, not served). *)
  let p99_bound = deadline_s +. (10.0 *. baseline.Jobs.p99_latency_s) in
  if chaos1.Jobs.p99_latency_s > p99_bound then
    fail "chaos p99 %.6f s exceeds the bound %.6f s" chaos1.Jobs.p99_latency_s
      p99_bound;
  let shed_reasons (s : Jobs.stats) =
    List.fold_left
      (fun acc (sh : Jobs.shed) ->
        let n = try List.assoc sh.Jobs.sh_reason acc with Not_found -> 0 in
        (sh.Jobs.sh_reason, n + 1) :: List.remove_assoc sh.Jobs.sh_reason acc)
      [] s.Jobs.sheds
  in
  let line name n (s : Jobs.stats) =
    Fmt.pr
      "  %-22s %5d/%d run, %d shed, %d dropped  makespan %9.3f ms  p50 \
       %8.3f us  p90 %8.3f us  p99 %8.3f us  slo viol %d@."
      name s.Jobs.jobs_run n s.Jobs.jobs_shed s.Jobs.jobs_dropped
      (s.Jobs.elapsed_s *. 1e3)
      (s.Jobs.p50_latency_s *. 1e6)
      (s.Jobs.p90_latency_s *. 1e6)
      (s.Jobs.p99_latency_s *. 1e6)
      s.Jobs.slo_violations
  in
  line "clean baseline" n_base baseline;
  line "clean, resilience on" n_base transparent;
  line "chaos campaign" n_chaos chaos1;
  List.iter
    (fun b -> Fmt.pr "  %a@." Breaker.pp_snapshot b)
    chaos1.Jobs.breakers;
  (match shed_reasons chaos1 with
  | [] -> Fmt.pr "  no jobs shed@."
  | rs ->
    Fmt.pr "  sheds:%s@."
      (String.concat ""
         (List.map (fun (r, n) -> Fmt.str " %s=%d" r n) rs)));
  let stats_json (s : Jobs.stats) =
    Ftn_obs.Json.Obj
      [
        ("jobs_run", Ftn_obs.Json.Int s.Jobs.jobs_run);
        ("jobs_dropped", Ftn_obs.Json.Int s.Jobs.jobs_dropped);
        ("jobs_shed", Ftn_obs.Json.Int s.Jobs.jobs_shed);
        ("elapsed_s", Ftn_obs.Json.Float s.Jobs.elapsed_s);
        ("p50_latency_s", Ftn_obs.Json.Float s.Jobs.p50_latency_s);
        ("p90_latency_s", Ftn_obs.Json.Float s.Jobs.p90_latency_s);
        ("p99_latency_s", Ftn_obs.Json.Float s.Jobs.p99_latency_s);
        ("slo_violations", Ftn_obs.Json.Int s.Jobs.slo_violations);
        ("shed_wait_s", Ftn_obs.Json.Float s.Jobs.shed_wait_s);
        ( "sheds",
          Ftn_obs.Json.Obj
            (List.map
               (fun (r, n) -> (r, Ftn_obs.Json.Int n))
               (shed_reasons s)) );
        ( "breakers",
          Ftn_obs.Json.List
            (List.map
               (fun b ->
                 Ftn_obs.Json.Obj
                   [
                     ("device", Ftn_obs.Json.Int b.Breaker.bk_device);
                     ("state", Ftn_obs.Json.String b.Breaker.bk_state);
                     ("trips", Ftn_obs.Json.Int b.Breaker.bk_trips);
                   ])
               s.Jobs.breakers) );
        ( "tenants",
          Ftn_obs.Json.Obj
            (List.map
               (fun (t : Jobs.tenant_stats) ->
                 ( t.Jobs.t_name,
                   Ftn_obs.Json.Obj
                     [
                       ("run", Ftn_obs.Json.Int t.Jobs.t_run);
                       ("shed", Ftn_obs.Json.Int t.Jobs.t_shed);
                       ("p50_s", Ftn_obs.Json.Float t.Jobs.t_p50_s);
                       ("p90_s", Ftn_obs.Json.Float t.Jobs.t_p90_s);
                       ("p99_s", Ftn_obs.Json.Float t.Jobs.t_p99_s);
                       ( "slo_violations",
                         Ftn_obs.Json.Int t.Jobs.t_slo_violations );
                     ] ))
               s.Jobs.tenants) );
      ]
  in
  let j =
    Ftn_obs.Json.Obj
      [
        ("jobs", Ftn_obs.Json.Int n_chaos);
        ("seed", Ftn_obs.Json.Int seed);
        ("deadline_s", Ftn_obs.Json.Float deadline_s);
        ("slo_s", Ftn_obs.Json.Float slo_s);
        ( "fault_plan",
          Ftn_obs.Json.String (Fault.plan_to_string persistent_plan) );
        ( "transparent",
          Ftn_obs.Json.Bool
            (String.equal baseline.Jobs.output transparent.Jobs.output) );
        ( "deterministic",
          Ftn_obs.Json.Bool
            (String.equal chaos1.Jobs.output chaos2.Jobs.output) );
        ("p99_bound_s", Ftn_obs.Json.Float p99_bound);
        ("baseline", stats_json baseline);
        ("resilience_on_clean", stats_json transparent);
        ("chaos", stats_json chaos1);
      ]
  in
  Ftn_obs.Json.write_file "BENCH_chaos.json" j;
  Fmt.pr "  wrote BENCH_chaos.json@.";
  if !failures <> [] then begin
    List.iter
      (fun s -> Fmt.epr "chaos bench FAILED: %s@." s)
      (List.rev !failures);
    exit 1
  end

(* --- BENCH_profile.json: profiling-overhead gate. Compiles and
   synthesises SGESL and the stencil once (with profiling on, so the
   compiler's own pattern/pass profile is populated), then executes each
   host program with profiling off and on, best-of-reps. The run exits
   nonzero unless profiling keeps program output byte-identical, costs
   at most 5% wall overhead (with a small absolute slack so quick runs
   are not gated on scheduler noise), and actually recorded data (op
   counts, per-kernel launch-latency histograms, pattern timings). *)

let measure_profiled ~enabled ~host ~bitstream ~reps =
  Ftn_obs.Profile.set_enabled enabled;
  Fun.protect
    ~finally:(fun () -> Ftn_obs.Profile.set_enabled false)
    (fun () ->
      let best = ref infinity in
      let last = ref None in
      for _ = 1 to reps do
        let sp = ref None in
        let r =
          Ftn_obs.Span.with_span_sp ~name:"bench.profile" (fun s ->
              sp := Some s;
              Executor.run ~host ~bitstream ())
        in
        let wall =
          match !sp with Some s -> s.Ftn_obs.Span.dur_s | None -> 0.0
        in
        if wall < !best then best := wall;
        last := Some r
      done;
      (!best, Option.get !last))

let profile_report () =
  header "Profiling overhead gate (BENCH_profile.json)";
  let n_sgesl = if quick then 64 else 256 in
  let stencil_n = if quick then 64 else 128 in
  let cases =
    [
      (Fmt.str "sgesl_n%d" n_sgesl, Ftn_linpack.Fortran_sources.sgesl ~n:n_sgesl);
      ( Fmt.str "stencil_n%d" stencil_n,
        stencil_source ~n:stencil_n ~steps:(if quick then 5 else 10) );
    ]
  in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let case_json (name, src) =
    progress "  profile bench: %s ..." name;
    (* compile with profiling enabled so pattern/pass self-profiling has
       data to assert on *)
    Ftn_obs.Profile.set_enabled true;
    let art =
      Fun.protect
        ~finally:(fun () -> Ftn_obs.Profile.set_enabled false)
        (fun () -> Core.Compiler.compile src)
    in
    let bitstream = Core.Compiler.synthesise art in
    let host = art.Core.Compiler.host in
    let reps = if quick then 3 else 5 in
    let wall_off, r_off = measure_profiled ~enabled:false ~host ~bitstream ~reps in
    Ftn_obs.Profile.reset ();
    let wall_on, r_on = measure_profiled ~enabled:true ~host ~bitstream ~reps in
    let ops_counted = Ftn_obs.Profile.total_ops () in
    if not (String.equal r_off.Executor.output r_on.Executor.output) then
      fail "%s: program output differs with profiling on" name;
    let overhead = (wall_on -. wall_off) /. Float.max 1e-9 wall_off in
    (* absolute slack: sub-millisecond deltas are scheduler noise, not
       profiling cost *)
    if overhead > 0.05 && wall_on -. wall_off > 2e-3 then
      fail "%s: profiling overhead %.1f%% exceeds the 5%% budget" name
        (overhead *. 100.);
    if ops_counted <= 0 then
      fail "%s: profiling recorded no op counts" name;
    let kernels =
      List.map
        (fun (k : Bitstream.kernel_design) -> k.Bitstream.kd_name)
        bitstream.Bitstream.kernels
    in
    let latency_json =
      List.filter_map
        (fun k ->
          let h = "device.kernel." ^ k ^ ".launch_latency_s" in
          match
            ( Ftn_obs.Metrics.histogram_quantile h 0.5,
              Ftn_obs.Metrics.histogram_quantile h 0.99 )
          with
          | Some p50, Some p99 ->
            Some
              ( k,
                Ftn_obs.Json.Obj
                  [
                    ("p50_us", Ftn_obs.Json.Float (p50 *. 1e6));
                    ("p99_us", Ftn_obs.Json.Float (p99 *. 1e6));
                  ] )
          | _ ->
            fail "%s: no launch-latency histogram for kernel %s" name k;
            None)
        kernels
    in
    if Ftn_ir.Rewrite.pattern_profile () = [] then
      fail "%s: no rewrite-pattern profile was recorded" name;
    Fmt.pr
      "  %-16s off %8.2f ms | on %8.2f ms | overhead %+6.2f%% | %9d ops \
       counted@."
      name (wall_off *. 1e3) (wall_on *. 1e3) (overhead *. 100.) ops_counted;
    ( name,
      Ftn_obs.Json.Obj
        [
          ("wall_off_s", Ftn_obs.Json.Float wall_off);
          ("wall_on_s", Ftn_obs.Json.Float wall_on);
          ("overhead_pct", Ftn_obs.Json.Float (overhead *. 100.));
          ( "outputs_identical",
            Ftn_obs.Json.Bool (String.equal r_off.Executor.output r_on.Executor.output) );
          ("ops_counted", Ftn_obs.Json.Int ops_counted);
          ("kernel_launch_latency", Ftn_obs.Json.Obj latency_json);
        ] )
  in
  let j =
    Ftn_obs.Json.Obj
      [
        ("overhead_budget_pct", Ftn_obs.Json.Float 5.0);
        ("cases", Ftn_obs.Json.Obj (List.map case_json cases));
      ]
  in
  Ftn_obs.Json.write_file "BENCH_profile.json" j;
  Fmt.pr "  wrote BENCH_profile.json@.";
  if !failures <> [] then begin
    List.iter
      (fun s -> Fmt.epr "profile bench FAILED: %s@." s)
      (List.rev !failures);
    exit 1
  end

(* --- Bechamel micro-benchmarks: one Test.make per table --- *)

let bechamel_tests () =
  let open Bechamel in
  let saxpy_src = Ftn_linpack.Fortran_sources.saxpy ~n:256 in
  let sgesl_src = Ftn_linpack.Fortran_sources.sgesl ~n:32 in
  let saxpy_hls =
    lazy
      (Option.get (Core.Compiler.compile saxpy_src).Core.Compiler.device_hls)
  in
  let kernel_fn m =
    List.find
      (fun o ->
        Ftn_dialects.Func_d.is_func o && Ftn_dialects.Func_d.has_body o)
      (Ftn_ir.Op.module_body m)
  in
  [
    Test.make ~name:"table1_saxpy_compile_and_run"
      (Staged.stage (fun () -> ignore (Core.Run.run saxpy_src)));
    Test.make ~name:"table2_sgesl_compile_and_run"
      (Staged.stage (fun () -> ignore (Core.Run.run sgesl_src)));
    Test.make ~name:"table3_saxpy_resource_estimate"
      (Staged.stage (fun () ->
           let ks = Schedule.analyse_kernel spec (kernel_fn (Lazy.force saxpy_hls)) in
           ignore (Resources.estimate spec ks)));
    Test.make ~name:"table4_sgesl_synthesis"
      (Staged.stage (fun () ->
           ignore
             (Synth.synthesise ~frontend:Resources.Clang_hls ~spec
                (Ftn_linpack.Hls_baselines.sgesl_device ~n:32))));
    Test.make ~name:"table5_power_model"
      (Staged.stage (fun () ->
           let ks = Schedule.analyse_kernel spec (kernel_fn (Lazy.force saxpy_hls)) in
           let r = Resources.estimate spec ks in
           ignore (Power.fpga_power_w spec r ~kernel_time_s:1e-3 ())));
    Test.make ~name:"table6_measurement_harness"
      (Staged.stage (fun () ->
           ignore (Core.Measure.measure ~runs:10 ~seed:1 1e-3)));
    Test.make ~name:"table7_loc_count"
      (Staged.stage (fun () ->
           List.iter
             (fun (_, _, files) -> ignore (component_loc files))
             loc_components));
  ]

let run_bechamel () =
  header "Bechamel micro-benchmarks (one per table)";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let tests = Test.make_grouped ~name:"tables" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Fmt.pr "  %-42s %12.1f ns/run@." name est
      | _ -> Fmt.pr "  %-42s (no estimate)@." name)
    results


(* --- BENCH_backend.json: cross-backend comparison and differential
   gate. Compiles the four evaluation programs once, synthesises and runs
   them on every registered backend, and fails unless each program's
   output is byte-identical across all backends (the host program and
   kernels are the same computation — only the device cost model and
   container differ) and the FTN container round-trips through
   save/load. *)

let backend_report () =
  header "Cross-backend comparison (BENCH_backend.json)";
  let n = if quick then 256 else 4096 in
  let n_sgesl = if quick then 32 else 128 in
  let stencil_n = if quick then 64 else 128 in
  let cases =
    [
      (Fmt.str "saxpy_n%d" n, Ftn_linpack.Fortran_sources.saxpy ~n);
      (Fmt.str "sgesl_n%d" n_sgesl, Ftn_linpack.Fortran_sources.sgesl ~n:n_sgesl);
      ( Fmt.str "stencil_n%d" stencil_n,
        stencil_source ~n:stencil_n ~steps:(if quick then 5 else 10) );
      ( Fmt.str "reduction_n%d" n,
        Ftn_linpack.Fortran_sources.dot_product ~n ~simdlen:10 );
    ]
  in
  let backends = Ftn_backend.Backend_registry.all () in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  let case_json (name, src) =
    let sides =
      List.map
        (fun backend ->
          let bname = Ftn_backend.Backend.name backend in
          progress "  backend bench: %s on %s ..." name bname;
          let options =
            {
              Core.Options.default with
              Core.Options.backend;
              xclbin_name = Ftn_backend.Backend.default_binary backend;
            }
          in
          let t0 = Unix.gettimeofday () in
          let art = Core.Compiler.compile ~options src in
          let bitstream = Core.Compiler.synthesise ~options art in
          let t1 = Unix.gettimeofday () in
          let exec =
            Executor.run ~host:art.Core.Compiler.host ~bitstream ()
          in
          let t2 = Unix.gettimeofday () in
          (* the saved container must reload into an identical design *)
          let reloaded =
            Ftn_backend.Backend.load_bitstream backend
              (Ftn_backend.Backend.save_bitstream backend bitstream)
          in
          if
            List.map (fun k -> k.Ftn_hlsim.Bitstream.kd_name)
              reloaded.Ftn_hlsim.Bitstream.kernels
            <> List.map (fun k -> k.Ftn_hlsim.Bitstream.kd_name)
                 bitstream.Ftn_hlsim.Bitstream.kernels
          then fail "%s/%s: container did not round-trip" name bname;
          ( bname,
            exec.Executor.output,
            Ftn_obs.Json.Obj
              [
                ("synth_wall_s", Ftn_obs.Json.Float (t1 -. t0));
                ("run_wall_s", Ftn_obs.Json.Float (t2 -. t1));
                ( "device_time_s",
                  Ftn_obs.Json.Float exec.Executor.device_time_s );
                ( "kernel_time_s",
                  Ftn_obs.Json.Float exec.Executor.kernel_time_s );
                ("launches", Ftn_obs.Json.Int exec.Executor.kernel_launches);
              ] ))
        backends
    in
    (match sides with
    | (ref_name, ref_out, _) :: rest ->
      List.iter
        (fun (bname, out, _) ->
          if not (String.equal ref_out out) then
            fail "%s: output differs between backends %s and %s" name
              ref_name bname)
        rest
    | [] -> ());
    let identical =
      match sides with
      | (_, ref_out, _) :: rest ->
        List.for_all (fun (_, out, _) -> String.equal ref_out out) rest
      | [] -> true
    in
    Fmt.pr "  %-16s %s@." name
      (String.concat " | "
         (List.map (fun (b, _, _) -> Fmt.str "%s ok" b) sides)
      ^ if identical then "  (outputs identical)" else "  (OUTPUTS DIFFER)");
    ( name,
      Ftn_obs.Json.Obj
        (("outputs_identical", Ftn_obs.Json.Bool identical)
        :: List.map (fun (b, _, j) -> (b, j)) sides) )
  in
  let j =
    Ftn_obs.Json.Obj
      [
        ( "backends",
          Ftn_obs.Json.List
            (List.map
               (fun b ->
                 Ftn_obs.Json.String (Ftn_backend.Backend.name b))
               backends) );
        ("cases", Ftn_obs.Json.Obj (List.map case_json cases));
      ]
  in
  Ftn_obs.Json.write_file "BENCH_backend.json" j;
  Fmt.pr "  wrote BENCH_backend.json@.";
  if !failures <> [] then begin
    List.iter
      (fun s -> Fmt.epr "backend bench FAILED: %s@." s)
      (List.rev !failures);
    exit 1
  end

let () =
  Fmt.pr
    "Reproduction of: An MLIR pipeline for offloading Fortran to FPGAs via \
     OpenMP (SC-W 2025)@.";
  Fmt.pr "Simulated device: %s, %g MHz kernel clock%s@." spec.Fpga_spec.name
    spec.Fpga_spec.clock_mhz
    (if quick then " [--quick sizes]" else "");
  if compile_only then begin
    compile_report ();
    Fmt.pr "@.done.@.";
    exit 0
  end;
  if interp_only then begin
    interp_report ();
    Fmt.pr "@.done.@.";
    exit 0
  end;
  if fault_only then begin
    fault_report ();
    Fmt.pr "@.done.@.";
    exit 0
  end;
  if profile_only then begin
    profile_report ();
    Fmt.pr "@.done.@.";
    exit 0
  end;
  if backend_only then begin
    backend_report ();
    Fmt.pr "@.done.@.";
    exit 0
  end;
  if sched_only then begin
    sched_report ();
    Fmt.pr "@.done.@.";
    exit 0
  end;
  if chaos_only then begin
    chaos_report ();
    Fmt.pr "@.done.@.";
    exit 0
  end;
  figure1 ();
  figure2 ();
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  table6 ();
  table7 ();
  ablation_unroll ();
  ablation_mac_fusion ();
  ablation_launch_overhead ();
  ablation_canonicalise ();
  ablation_burst ();
  obs_report ();
  compile_report ();
  interp_report ();
  fault_report ();
  backend_report ();
  sched_report ();
  chaos_report ();
  if not skip_bechamel then run_bechamel ();
  Fmt.pr "@.done.@."
