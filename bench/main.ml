(* Benchmark harness: regenerates every figure and table of the paper's
   evaluation (Section 4) on the simulated U280, printing measured values
   next to the paper's published numbers, then the ablations, then the
   three checks only a wall clock can make:

     - the closure-compiled interpreter is >= 3x the tree-walker;
     - profiling costs at most 5% of executor wall time;
     - the 4-domain mid-end is >= 1.5x one domain, on >= 4 cores.

   Each timing gate writes its measurements to BENCH_<gate>.json in the
   working directory, and the run exits 1 when one fails. Every check
   that needs no clock runs under `dune runtest`.

     dune exec bench/main.exe            # full paper problem sizes
     dune exec bench/main.exe -- --quick # reduced sizes for smoke runs *)

open Ftn_hlsim
open Ftn_runtime
module Json = Ftn_obs.Json

let quick =
  match Sys.argv with
  | [| _ |] -> false
  | [| _; "--quick" |] -> true
  | _ ->
    prerr_endline "usage: main.exe [--quick]";
    exit 2

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

let first_kernel_resources (bs : Bitstream.t) =
  (List.hd bs.Bitstream.kernels).Bitstream.kd_resources

let run_ftn name source n =
  progress "  %s (Fortran flow) N=%d ..." name n;
  let run = Core.Run.run (source ~n) in
  {
    device_time_s = Core.Run.device_time run;
    kernel_time_s = Core.Run.kernel_time run;
    resources = first_kernel_resources run.Core.Run.bitstream;
  }

let run_hand name
    (baseline :
      ?spec:Fpga_spec.t ->
      n:int ->
      unit ->
      Ftn_linpack.Hls_baselines.baseline_run) n =
  progress "  %s (hand-written HLS) N=%d ..." name n;
  let r = baseline ~n () in
  {
    device_time_s = r.result.Executor.device_time_s;
    kernel_time_s = r.result.Executor.kernel_time_s;
    resources = first_kernel_resources r.bitstream;
  }

let saxpy_ftn =
  lazy
    (List.map (run_ftn "saxpy" Ftn_linpack.Fortran_sources.saxpy) saxpy_sizes)

let saxpy_hand =
  lazy
    (List.map (run_hand "saxpy" Ftn_linpack.Hls_baselines.run_saxpy)
       saxpy_sizes)

let sgesl_ftn =
  lazy
    (List.map (run_ftn "sgesl" Ftn_linpack.Fortran_sources.sgesl) sgesl_sizes)

let sgesl_hand =
  lazy
    (List.map (run_hand "sgesl" Ftn_linpack.Hls_baselines.run_sgesl)
       sgesl_sizes)

(* --- formatting helpers --- *)

let rule = String.make 78 '-'

let header title =
  Fmt.pr "@.%s@.%s@.%s@." rule title rule

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
  try List.length (In_channel.with_open_text path In_channel.input_lines)
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

(* The SAXPY compile that the figures and Ablations A and D trace. *)
let saxpy_1024 =
  lazy (Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:1024))

let figure1 () =
  header
    "Figure 1: lowering Flang output (FIR) to core dialects and LLVM-IR \
     (flow of [3]), traced on SAXPY";
  let art = Lazy.force saxpy_1024 in
  Fmt.pr "  Fortran source            %d lines@."
    (List.length (String.split_on_char '\n' art.Core.Compiler.source));
  Fmt.pr "  | flang: parse + lower@.";
  Fmt.pr "  v@.";
  Fmt.pr "  HLFIR/FIR + omp           [%s]@."
    (dialect_census art.Core.Compiler.fir_module);
  Fmt.pr "  | fir-to-core [3]@.";
  Fmt.pr "  v@.";
  Fmt.pr "  core dialects + omp       [%s]@."
    (dialect_census art.Core.Compiler.core_module);
  Fmt.pr "  | mlir-opt -> llvm dialect -> LLVM-IR (device path)@.";
  Fmt.pr "  v@.";
  match art.Core.Compiler.llvm_ir with
  | Some t ->
    Fmt.pr "  LLVM-IR                   %d lines@."
      (List.length (String.split_on_char '\n' t))
  | None -> ()

let figure2 () =
  header
    "Figure 2: full compilation flow, Fortran + OpenMP to host binary and \
     FPGA bitstream";
  let art = Lazy.force saxpy_1024 in
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
    "Ablation A: unroll factor vs initiation interval (design-space \
     exploration over simdlen)";
  let art = Lazy.force saxpy_1024 in
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

(* A Fortran-flow run on the Vitis backend with a modified device spec. *)
let run_on_spec spec' src =
  Core.Run.run
    ~options:
      {
        Core.Options.default with
        Core.Options.backend = Ftn_backend.Backend_vitis.make ~spec:spec' ();
      }
    src

(* Ablation C: launch-overhead sensitivity for the per-iteration-offload
   SGESL pattern. *)
let ablation_launch_overhead () =
  header
    "Ablation C: kernel-launch overhead sensitivity (SGESL offloads one \
     kernel per outer iteration)";
  let n = if quick then 128 else 512 in
  List.iter
    (fun overhead_us ->
      let run =
        run_on_spec
          { spec with Fpga_spec.kernel_launch_overhead_s = overhead_us *. 1e-6 }
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
  let core = (Lazy.force saxpy_1024).Core.Compiler.core_module in
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
      let run =
        run_on_spec
          { spec with Fpga_spec.burst_inference = burst }
          (Ftn_linpack.Fortran_sources.saxpy ~n)
      in
      Fmt.pr "  saxpy N=%d, burst %-3s -> kernel %8.3f ms@." n
        (if burst then "on" else "off")
        (Core.Run.kernel_time run *. 1e3))
    [ false; true ];
  let n2 = if quick then 64 else 256 in
  List.iter
    (fun burst ->
      let run =
        run_on_spec
          { spec with Fpga_spec.burst_inference = burst }
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

(* --- Timing gates: the checks only a wall clock can make --- *)

let failures = ref []
let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let median_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let floats fields = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) fields)

let write_json path j =
  Json.write_file path j;
  Fmt.pr "  wrote %s@." path

(* SGESL and the heat-diffusion stencil, compiled and synthesised once for
   the interpreter and profiling gates. *)
let gate_programs () =
  let n = if quick then 64 else 256 and stencil_n = if quick then 64 else 128 in
  List.map
    (fun (name, src) ->
      let art = Core.Compiler.compile src in
      (name, art.Core.Compiler.host, Core.Compiler.synthesise art))
    [
      (Fmt.str "sgesl_n%d" n, Ftn_linpack.Fortran_sources.sgesl ~n);
      ( Fmt.str "stencil_n%d" stencil_n,
        Ftn_linpack.Fortran_sources.stencil ~n:stencil_n
          ~steps:(if quick then 5 else 10) );
    ]

(* BENCH_interp.json: the host program against its bitstream under each
   engine, best of 5 reps, with steps/second, minor-heap words per step
   and (for the compiled engine) closure-compilation time. *)

type interp_measurement = {
  wall_s : float;  (** Best of the reps. *)
  steps : int;  (** First rep. *)
  compile_ms : float;  (** Closure compilation, first rep. *)
  words_per_step : float;  (** Minor-heap words per step, first rep. *)
}

let hist_sum name =
  match Ftn_obs.Metrics.find name with
  | Some (Ftn_obs.Metrics.Histogram_v { sum; _ }) -> sum
  | _ -> 0.0

let measure_interp engine ~host ~bitstream =
  (* earlier phases leave the major heap in an arbitrary state; compact so
     the engine comparison isn't skewed by whose allocations happen to
     trigger a major slice *)
  Gc.compact ();
  let reps =
    List.init 5 (fun _ ->
        (* collect the previous rep's garbage outside the clock so major-GC
           work isn't attributed to whichever engine runs next *)
        Gc.full_major ();
        let s0 = Ftn_obs.Metrics.counter_value "interp.steps" in
        let c0 = hist_sum "interp.compile_ms" in
        let w0 = Gc.minor_words () in
        let wall_s, _ =
          time (fun () -> Executor.run ~engine ~host ~bitstream ())
        in
        let words = Gc.minor_words () -. w0 in
        let steps = Ftn_obs.Metrics.counter_value "interp.steps" - s0 in
        {
          wall_s;
          steps;
          compile_ms = hist_sum "interp.compile_ms" -. c0;
          words_per_step = words /. float_of_int (max 1 steps);
        })
  in
  {
    (List.hd reps) with
    wall_s = List.fold_left (fun acc m -> Float.min acc m.wall_s) infinity reps;
  }

let interp_gate programs =
  header
    "Interpreter engines: compiled >= 3x the tree-walker (BENCH_interp.json)";
  let case (name, host, bitstream) =
    progress "  interp gate: %s ..." name;
    let measure engine = measure_interp engine ~host ~bitstream in
    let tree = ref (measure `Tree) in
    let comp = ref (measure `Compiled) in
    let speedup () = !tree.wall_s /. Float.max 1e-9 !comp.wall_s in
    (* On a loaded box one engine can miss its wall floor within a single
       round (a preemption lands on all its reps). Extra rounds only lower
       both best-of minima, so they converge on the true ratio: if the
       speedup genuinely regressed below the gate the retries cannot mask
       it, they just spend a few more ms on it. *)
    let extra = ref 6 in
    while speedup () < 3.0 && !extra > 0 do
      decr extra;
      let t = measure `Tree in
      let c = measure `Compiled in
      tree := { !tree with wall_s = Float.min !tree.wall_s t.wall_s };
      comp := { !comp with wall_s = Float.min !comp.wall_s c.wall_s }
    done;
    let speedup = speedup () in
    if speedup < 3.0 then
      fail "%s: compiled engine only %.2fx faster than the tree walker (< 3x)"
        name speedup;
    let steps_per_s m = float_of_int m.steps /. Float.max 1e-9 m.wall_s in
    Fmt.pr
      "  %-16s tree %8.2f ms (%11.0f steps/s, %5.2f words/step) | compiled \
       %8.2f ms (%11.0f steps/s, %5.2f words/step, compile %5.2f ms) | \
       %5.2fx@."
      name (!tree.wall_s *. 1e3) (steps_per_s !tree) !tree.words_per_step
      (!comp.wall_s *. 1e3) (steps_per_s !comp) !comp.words_per_step
      !comp.compile_ms speedup;
    let side m =
      floats
        [
          ("wall_s", m.wall_s);
          ("steps_per_sec", steps_per_s m);
          ("compile_ms", m.compile_ms);
          ("minor_words_per_step", m.words_per_step);
        ]
    in
    ( name,
      Json.Obj
        [
          ("tree", side !tree);
          ("compiled", side !comp);
          ("speedup", Json.Float speedup);
        ] )
  in
  write_json "BENCH_interp.json"
    (Json.Obj [ ("cases", Json.Obj (List.map case programs)) ])

(* BENCH_profile.json: executor wall time with profiling off and on, best
   of the reps. *)

let measure_profiled ~enabled ~host ~bitstream =
  Ftn_obs.Profile.set_enabled enabled;
  Fun.protect
    ~finally:(fun () -> Ftn_obs.Profile.set_enabled false)
    (fun () ->
      List.init (if quick then 3 else 5) (fun _ ->
          fst (time (fun () -> Executor.run ~host ~bitstream ())))
      |> List.fold_left Float.min infinity)

let profile_gate programs =
  header "Profiling overhead <= 5% (BENCH_profile.json)";
  let case (name, host, bitstream) =
    progress "  profile gate: %s ..." name;
    let off = measure_profiled ~enabled:false ~host ~bitstream in
    Ftn_obs.Profile.reset ();
    let on = measure_profiled ~enabled:true ~host ~bitstream in
    let overhead = (on -. off) /. Float.max 1e-9 off in
    (* absolute slack: sub-millisecond deltas are scheduler noise, not
       profiling cost *)
    if overhead > 0.05 && on -. off > 2e-3 then
      fail "%s: profiling overhead %.1f%% exceeds the 5%% budget" name
        (overhead *. 100.);
    Fmt.pr "  %-16s off %8.2f ms | on %8.2f ms | overhead %+6.2f%%@." name
      (off *. 1e3) (on *. 1e3) (overhead *. 100.);
    ( name,
      floats
        [
          ("wall_off_s", off);
          ("wall_on_s", on);
          ("overhead_pct", overhead *. 100.);
        ] )
  in
  write_json "BENCH_profile.json"
    (Json.Obj
       [
         ("overhead_budget_pct", Json.Float 5.0);
         ("cases", Json.Obj (List.map case programs));
       ])

(* BENCH_compile.json: median mid-end wall time of the many-kernel module
   on the sequential pipeline and on 1, 2 and 4 domains. The 1.5x target
   is enforced only when the machine has >= 4 cores
   (Domain.recommended_domain_count); with fewer, parallelism cannot speed
   anything up and the speedup is informational. *)

let compile_gate () =
  header "Domain-parallel mid-end: 4 domains >= 1.5x one (BENCH_compile.json)";
  let kernels = if quick then 12 else 32 and n = if quick then 512 else 4096 in
  let reps = if quick then 5 else 7 in
  let cores = Domain.recommended_domain_count () in
  let name = Fmt.str "many_kernels_k%d" kernels in
  let core =
    Ftn_frontend.Frontend.to_core
      (Ftn_linpack.Fortran_sources.many_kernels ~kernels ~n)
  in
  let mid domains () =
    ignore
      (Ftn_passes.Pipeline.run_mid_end
         ~options:{ Ftn_passes.Pipeline.default_options with domains }
         core)
  in
  let wall domains =
    mid domains ();
    median_of (List.init reps (fun _ -> fst (time (mid domains))))
  in
  progress "  compile gate: %s ..." name;
  let w0 = wall 0 and w1 = wall 1 and w2 = wall 2 and w4 = wall 4 in
  let speedup = w1 /. Float.max 1e-9 w4 in
  let gated = cores >= 4 in
  if gated && speedup < 1.5 then
    fail
      "%s: 4-domain mid-end wall speedup %.2fx is below the 1.5x target on a \
       %d-core machine"
      name speedup cores;
  Fmt.pr
    "  %-20s seq %6.2f ms | d1 %6.2f ms | d2 %6.2f ms | d4 %6.2f ms | %.2fx \
     d4-vs-d1 (%d cores%s)@."
    name (w0 *. 1e3) (w1 *. 1e3) (w2 *. 1e3) (w4 *. 1e3) speedup cores
    (if gated then ", gated >= 1.5x" else ", speedup informational");
  write_json "BENCH_compile.json"
    (Json.Obj
       [
         ("cores", Json.Int cores);
         ("case", Json.String name);
         ("reps", Json.Int reps);
         ( "wall_ms",
           floats
             [
               ("sequential", w0 *. 1e3);
               ("domains_1", w1 *. 1e3);
               ("domains_2", w2 *. 1e3);
               ("domains_4", w4 *. 1e3);
             ] );
         ("speedup_domains_4_vs_1", Json.Float speedup);
         ("speedup_target", Json.Float 1.5);
         ("speedup_gated", Json.Bool gated);
       ])

let () =
  Fmt.pr
    "Reproduction of: An MLIR pipeline for offloading Fortran to FPGAs via \
     OpenMP (SC-W 2025)@.";
  Fmt.pr "Simulated device: %s, %g MHz kernel clock%s@." spec.Fpga_spec.name
    spec.Fpga_spec.clock_mhz
    (if quick then " [--quick sizes]" else "");
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
  let programs = gate_programs () in
  interp_gate programs;
  profile_gate programs;
  compile_gate ();
  match List.rev !failures with
  | [] -> Fmt.pr "@.done.@."
  | fs ->
    List.iter (Fmt.epr "timing gate FAILED: %s@.") fs;
    exit 1
