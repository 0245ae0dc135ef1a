(* Tests for the HLS/U280 simulation: scheduling rules, resource
   estimation (including the paper's Table 3/4 values), the timing and
   power models, and the synthesis driver. *)

open Ftn_ir
open Ftn_hlsim

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let spec = Fpga_spec.u280

let kernel_of_module m =
  List.find
    (fun o -> Ftn_dialects.Func_d.is_func o && Ftn_dialects.Func_d.has_body o)
    (Op.module_body m)

let saxpy_schedule ?(n = 100) () =
  Schedule.analyse_kernel spec
    (kernel_of_module (Ftn_linpack.Hls_baselines.saxpy_device ~n))

let sgesl_schedule () =
  Schedule.analyse_kernel spec
    (kernel_of_module (Ftn_linpack.Hls_baselines.sgesl_device ~n:64))

let the_loop ks =
  match Schedule.flatten_loops ks.Schedule.loops with
  | [ l ] -> l
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let schedule_tests =
  [
    tc "saxpy kernel: ports, unroll, trip" (fun () ->
        let ks = saxpy_schedule () in
        check (Alcotest.list Alcotest.string) "bundles" [ "gmem0"; "gmem1" ]
          ks.Schedule.m_axi_bundles;
        check Alcotest.int "axilite" 1 ks.Schedule.s_axilite_args;
        let l = the_loop ks in
        check Alcotest.bool "pipelined" true l.Schedule.pipelined;
        check Alcotest.int "unroll" 10 l.Schedule.unroll;
        check (Alcotest.option Alcotest.int) "trip" (Some 100) l.Schedule.static_trip;
        check Alcotest.int "macs" 1 l.Schedule.macs);
    tc "unrolled RMW loop is port bound (32 cycles/element)" (fun () ->
        let l = the_loop (saxpy_schedule ()) in
        (* y port: 1 read + 1 write per element, x10 unroll, x16 share /10 *)
        check (Alcotest.float 0.01) "cycles" 32.0 l.Schedule.cycles_per_iteration;
        check Alcotest.bool "rmw detected" true l.Schedule.rmw_port);
    tc "non-unrolled RMW loop is chain bound" (fun () ->
        let l = the_loop (sgesl_schedule ()) in
        check Alcotest.int "unroll 1" 1 l.Schedule.unroll;
        check (Alcotest.float 0.01) "cycles"
          (float_of_int spec.Fpga_spec.rmw_chain_cycles)
          l.Schedule.cycles_per_iteration);
    tc "read-only loops are cheaper than RMW" (fun () ->
        (* dot-product style kernel from the Fortran flow: reads two arrays,
           writes none of them *)
        let art =
          Core.Compiler.compile (Ftn_linpack.Fortran_sources.dot_product ~n:64 ~simdlen:1)
        in
        match art.Core.Compiler.device_hls with
        | Some d ->
          let ks = Schedule.analyse_kernel spec (kernel_of_module d) in
          let l = List.hd (Schedule.flatten_loops ks.Schedule.loops) in
          check Alcotest.bool "cheaper than chain" true
            (l.Schedule.cycles_per_iteration
            < float_of_int spec.Fpga_spec.rmw_chain_cycles)
        | None -> Alcotest.fail "no device module");
    tc "dynamic trip count is unknown statically" (fun () ->
        let l = the_loop (sgesl_schedule ()) in
        check (Alcotest.option Alcotest.int) "trip" None l.Schedule.static_trip);
  ]

let resources_tests =
  [
    tc "Table 3: SAXPY resources match the paper on both flows" (fun () ->
        let ks = saxpy_schedule ~n:100 () in
        let ftn = Resources.estimate ~frontend:Resources.Mlir_flow spec ks in
        let hand = Resources.estimate ~frontend:Resources.Clang_hls spec ks in
        check (Alcotest.float 0.005) "ftn LUT" 8.29 ftn.Resources.lut_pct;
        check (Alcotest.float 0.005) "hand LUT" 8.29 hand.Resources.lut_pct;
        check (Alcotest.float 0.005) "BRAM" 10.07 ftn.Resources.bram_pct;
        check (Alcotest.float 0.005) "ftn DSP" 0.10 ftn.Resources.dsp_pct;
        check (Alcotest.float 0.005) "hand DSP" 0.10 hand.Resources.dsp_pct);
    tc "Table 4: SGESL DSP divergence from MAC fusion" (fun () ->
        (* the Fortran-flow kernel comes from the compiled benchmark; the
           hand-written kernel from the baseline construction *)
        let art =
          Core.Compiler.compile (Ftn_linpack.Fortran_sources.sgesl ~n:64)
        in
        let ftn_ks =
          match art.Core.Compiler.device_hls with
          | Some d -> Schedule.analyse_kernel spec (kernel_of_module d)
          | None -> Alcotest.fail "no device module"
        in
        let ks = sgesl_schedule () in
        let ftn = Resources.estimate ~frontend:Resources.Mlir_flow spec ftn_ks in
        let hand = Resources.estimate ~frontend:Resources.Clang_hls spec ks in
        check (Alcotest.float 0.005) "ftn LUT" 8.24 ftn.Resources.lut_pct;
        check (Alcotest.float 0.005) "hand LUT" 8.22 hand.Resources.lut_pct;
        check (Alcotest.float 0.005) "ftn DSP" 0.10 ftn.Resources.dsp_pct;
        check (Alcotest.float 0.005) "hand DSP" 0.23 hand.Resources.dsp_pct;
        check Alcotest.int "fused macs" 1 hand.Resources.fused_macs;
        check Alcotest.int "ftn lut macs" 1 ftn.Resources.lut_macs);
    tc "unrolling defeats MAC fusion even for Clang" (fun () ->
        let ks = saxpy_schedule () in
        let hand = Resources.estimate ~frontend:Resources.Clang_hls spec ks in
        check Alcotest.int "no fused macs" 0 hand.Resources.fused_macs);
    tc "local buffers consume BRAM" (fun () ->
        let art =
          Core.Compiler.compile
            (Ftn_linpack.Fortran_sources.dot_product ~n:64 ~simdlen:4)
        in
        match art.Core.Compiler.device_hls with
        | Some d ->
          let ks = Schedule.analyse_kernel spec (kernel_of_module d) in
          check Alcotest.bool "reduction copies allocated" true
            (ks.Schedule.local_buffer_bytes > 0)
        | None -> Alcotest.fail "no device");
    tc "shell is charged exactly once" (fun () ->
        let ks = saxpy_schedule () in
        let r = Resources.estimate spec ks in
        check Alcotest.int "total = kernel + shell"
          (r.Resources.kernel.Resources.luts + spec.Fpga_spec.shell_luts)
          r.Resources.total.Resources.luts);
  ]

let timing_tests =
  [
    tc "kernel cycles from recorded stats" (fun () ->
        let ks = saxpy_schedule ~n:1000 () in
        let l = the_loop ks in
        let stats = Timing.make_stats () in
        Timing.record_loop stats ~loop_key:l.Schedule.loop_key ~iters:1000;
        let cycles = Timing.kernel_cycles ks stats in
        (* 1000 iterations at 32 cycles + one pipeline fill *)
        check (Alcotest.float 1.0) "cycles"
          (32000.0 +. float_of_int spec.Fpga_spec.pipeline_depth_cycles)
          cycles);
    tc "unrecorded loops contribute nothing" (fun () ->
        let ks = saxpy_schedule () in
        check (Alcotest.float 0.0) "zero" 0.0
          (Timing.kernel_cycles ks (Timing.make_stats ())));
    tc "stats merge accumulates" (fun () ->
        let a = Timing.make_stats () in
        let b = Timing.make_stats () in
        Timing.record_loop a ~loop_key:1 ~iters:10;
        Timing.record_loop b ~loop_key:1 ~iters:20;
        Timing.merge ~src:a ~dst:b;
        check
          (Alcotest.option Alcotest.int)
          "iters" (Some 30)
          (Hashtbl.find_opt b.Timing.iterations 1));
    tc "static estimate uses trip counts" (fun () ->
        let ks = saxpy_schedule ~n:1000 () in
        let static = Timing.static_kernel_cycles ks in
        check Alcotest.bool "close to dynamic" true
          (Float.abs (static -. 32100.0) < 1.0));
    tc "transfer time scales with bytes" (fun () ->
        let t1 = Timing.transfer_time_s spec ~bytes:4_000 in
        let t2 = Timing.transfer_time_s spec ~bytes:40_000_000 in
        check Alcotest.bool "bigger slower" true (t2 > t1);
        check Alcotest.bool "fixed floor" true
          (t1 >= spec.Fpga_spec.dma_fixed_overhead_s));
    tc "SAXPY N=10K lands near the paper's 1.251 ms" (fun () ->
        let ks = saxpy_schedule ~n:10_000 () in
        let l = the_loop ks in
        let stats = Timing.make_stats () in
        Timing.record_loop stats ~loop_key:l.Schedule.loop_key ~iters:10_000;
        let kernel = Timing.kernel_time_s spec ks stats in
        let total =
          kernel
          +. (3.0 *. Timing.alloc_overhead_s spec)
          +. Timing.launch_overhead_s spec
          +. (4.0 *. Timing.transfer_time_s spec ~bytes:40_000)
        in
        check Alcotest.bool "within 5%" true
          (Float.abs (total -. 1.251e-3) /. 1.251e-3 < 0.05));
  ]

let power_tests =
  [
    tc "activity grows with duty cycle" (fun () ->
        let a_short =
          Power.activity ~kernel_time_s:1e-5 ~device_time_s:1e-4
        in
        let a_long = Power.activity ~kernel_time_s:10.0 ~device_time_s:10.0 in
        check Alcotest.bool "monotone" true (a_long > a_short);
        check Alcotest.bool "approaches 1" true (a_long > 0.95 && a_long <= 1.0);
        check Alcotest.bool "idle floor" true
          (a_short >= Power.idle_dynamic_fraction));
    tc "fpga power sits in the paper's band" (fun () ->
        let ks = saxpy_schedule () in
        let r = Resources.estimate spec ks in
        let p_small = Power.fpga_power_w spec r ~kernel_time_s:1.2e-3 () in
        let p_large = Power.fpga_power_w spec r ~kernel_time_s:10.0 () in
        check Alcotest.bool "small in band" true (p_small > 21.0 && p_small < 23.0);
        check Alcotest.bool "large in band" true (p_large > 23.0 && p_large < 26.0);
        check Alcotest.bool "grows" true (p_large > p_small));
    tc "cpu draws roughly twice the fpga" (fun () ->
        let ks = saxpy_schedule () in
        let r = Resources.estimate spec ks in
        let fpga = Power.fpga_power_w spec r ~kernel_time_s:0.1 () in
        let cpu = Power.cpu_power_w spec ~kernel_time_s:0.1 in
        check Alcotest.bool "ratio" true (cpu /. fpga > 1.8 && cpu /. fpga < 3.0));
  ]

let dse_tests =
  let explore () =
    let art =
      Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:1024)
    in
    match art.Core.Compiler.device_hls with
    | Some d ->
      let ks = Schedule.analyse_kernel spec (kernel_of_module d) in
      Option.get (Dse.explore_kernel ~spec ks)
    | None -> Alcotest.fail "no device module"
  in
  [
    tc "explorer covers the requested factors" (fun () ->
        let r = explore () in
        check Alcotest.int "seven candidates" 7
          (List.length r.Dse.candidates));
    tc "cycles never increase with unroll" (fun () ->
        let r = explore () in
        let rec monotone = function
          | a :: (b :: _ as rest) ->
            a.Dse.cycles_per_iteration >= b.Dse.cycles_per_iteration -. 1e-9
            && monotone rest
          | _ -> true
        in
        check Alcotest.bool "monotone" true (monotone r.Dse.candidates));
    tc "pareto drops dominated plateau points" (fun () ->
        let r = explore () in
        (* once the port bound is reached, larger unrolls cost more LUTs at
           equal cycles and must not be on the frontier *)
        let plateau =
          List.filter
            (fun c -> c.Dse.cycles_per_iteration <= 32.0 +. 1e-9)
            r.Dse.candidates
        in
        check Alcotest.bool "several on plateau" true (List.length plateau > 1);
        let plateau_on_frontier =
          List.filter (fun c -> List.memq c r.Dse.pareto) plateau
        in
        check Alcotest.int "only the cheapest survives" 1
          (List.length plateau_on_frontier));
    tc "best respects the LUT budget" (fun () ->
        let art =
          Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:1024)
        in
        let ks =
          match art.Core.Compiler.device_hls with
          | Some d -> Schedule.analyse_kernel spec (kernel_of_module d)
          | None -> Alcotest.fail "no device"
        in
        let r = Option.get (Dse.explore_kernel ~spec ~lut_budget:9_500 ks) in
        (match r.Dse.best with
        | Some b ->
          check Alcotest.bool "within budget" true (b.Dse.kernel_luts <= 9_500)
        | None -> Alcotest.fail "expected a feasible point");
        let r2 = Option.get (Dse.explore_kernel ~spec ~lut_budget:1 ks) in
        check Alcotest.bool "infeasible budget" true (r2.Dse.best = None));
    tc "non-pipelined kernels yield no exploration" (fun () ->
        let b = Ftn_ir.Builder.create () in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"empty" ~args:[] ~result_tys:[]
            [ Ftn_dialects.Func_d.return () ]
        in
        ignore b;
        let ks = Schedule.analyse_kernel spec fn in
        check Alcotest.bool "none" true (Dse.explore_kernel ~spec ks = None));
  ]

let synth_tests =
  [
    tc "synthesis packages kernels into a bitstream" (fun () ->
        let bs =
          Synth.synthesise ~spec ~xclbin_name:"t.xclbin"
            (Ftn_linpack.Hls_baselines.saxpy_device ~n:100)
        in
        check Alcotest.string "name" "t.xclbin" bs.Bitstream.xclbin_name;
        check Alcotest.int "one kernel" 1 (List.length bs.Bitstream.kernels);
        check Alcotest.bool "log mentions synthesis" true
          (List.exists
             (fun l -> Astring_like.contains l "HLS synthesis")
             bs.Bitstream.build_log);
        check Alcotest.bool "find_kernel" true
          (Bitstream.find_kernel bs "saxpy_hw" <> None);
        check Alcotest.bool "missing kernel" true
          (Bitstream.find_kernel bs "nope" = None));
    tc "empty device module is a synthesis error" (fun () ->
        try
          ignore (Synth.synthesise ~spec (Op.module_op []));
          Alcotest.fail "expected error"
        with Synth.Synthesis_error _ -> ());
    tc "frontend choice is recorded" (fun () ->
        let bs =
          Synth.synthesise ~spec ~frontend:Resources.Clang_hls
            (Ftn_linpack.Hls_baselines.sgesl_device ~n:64)
        in
        check Alcotest.bool "clang" true (bs.Bitstream.frontend = Resources.Clang_hls));
  ]

let dataflow_tests =
  [
    tc "dataflow kernels are bound by the slowest stage" (fun () ->
        let n = 1000 in
        let sched df =
          Schedule.analyse_kernel spec
            (kernel_of_module
               (Ftn_linpack.Hls_baselines.scale_dataflow_device ~dataflow:df
                  ~n ()))
        in
        let with_df = sched true and without_df = sched false in
        check Alcotest.bool "flag" true with_df.Schedule.dataflow;
        check Alcotest.bool "no flag" false without_df.Schedule.dataflow;
        check Alcotest.int "three stages" 3
          (List.length with_df.Schedule.loops);
        let stats = Timing.make_stats () in
        List.iter
          (fun (l : Schedule.loop_info) ->
            Timing.record_loop stats ~loop_key:l.Schedule.loop_key ~iters:n)
          (Schedule.flatten_loops with_df.Schedule.loops);
        let c_df = Timing.kernel_cycles with_df stats in
        let c_seq = Timing.kernel_cycles without_df stats in
        check Alcotest.bool "overlap is faster" true (c_df < c_seq);
        (* the slowest stage is an m_axi stage at 16 cycles/iteration *)
        check (Alcotest.float 1.0) "bound by slowest"
          (16.0 *. float_of_int n +. float_of_int spec.Fpga_spec.pipeline_depth_cycles)
          c_df);
    tc "dataflow run produces correct values" (fun () ->
        let n = 64 in
        let r =
          Ftn_linpack.Hls_baselines.run_scale_dataflow ~n ~a:3.0 ()
        in
        Array.iteri
          (fun i v ->
            let expect =
              Ftn_linpack.References.to_f32 (3.0 *. float_of_int (i + 1))
            in
            if v <> expect then Alcotest.failf "y(%d) = %f" i v)
          r.Ftn_linpack.Hls_baselines.values);
  ]

let io_tests =
  [
    tc "save/load round-trips a bitstream" (fun () ->
        let bs =
          Synth.synthesise ~spec ~frontend:Resources.Clang_hls
            ~xclbin_name:"rt.xclbin"
            (Ftn_linpack.Hls_baselines.sgesl_device ~n:64)
        in
        let text = Bitstream_io.save bs in
        let bs' = Bitstream_io.load ~spec text in
        check Alcotest.string "name" bs.Bitstream.xclbin_name
          bs'.Bitstream.xclbin_name;
        check Alcotest.bool "frontend" true
          (bs'.Bitstream.frontend = Resources.Clang_hls);
        check Alcotest.int "kernels" 1 (List.length bs'.Bitstream.kernels);
        let r k = (List.hd k.Bitstream.kernels).Bitstream.kd_resources in
        check (Alcotest.float 0.001) "same LUTs" (r bs).Resources.lut_pct
          (r bs').Resources.lut_pct;
        check Alcotest.int "same DSPs" (r bs).Resources.total.Resources.dsps
          (r bs').Resources.total.Resources.dsps);
    tc "loaded bitstream executes identically" (fun () ->
        let art =
          Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:32)
        in
        let bs = Core.Compiler.synthesise art in
        let bs' = Bitstream_io.load ~spec (Bitstream_io.save bs) in
        let run host bitstream =
          Ftn_runtime.Executor.run ~host ~bitstream ()
        in
        let a = run art.Core.Compiler.host bs in
        let b = run art.Core.Compiler.host bs' in
        check (Alcotest.float 1e-12) "same simulated time"
          a.Ftn_runtime.Executor.device_time_s
          b.Ftn_runtime.Executor.device_time_s;
        check Alcotest.string "same output" a.Ftn_runtime.Executor.output
          b.Ftn_runtime.Executor.output);
    tc "bad magic is rejected" (fun () ->
        try
          ignore (Bitstream_io.load ~spec "not an xclbin");
          Alcotest.fail "expected Format_error"
        with Bitstream_io.Format_error _ -> ());
    tc "corrupt IR is rejected" (fun () ->
        let text =
          Bitstream_io.magic
          ^ "\nbackend: vitis\nname: x\nfrontend: mlir\n=== MODULE ===\n\"oops"
        in
        try
          ignore (Bitstream_io.load ~spec text);
          Alcotest.fail "expected Format_error"
        with Bitstream_io.Format_error _ -> ());
  ]

let () =
  Alcotest.run "hlsim"
    [
      ("schedule", schedule_tests);
      ("resources", resources_tests);
      ("timing", timing_tests);
      ("power", power_tests);
      ("synth", synth_tests);
      ("dse", dse_tests);
      ("bitstream-io", io_tests);
      ("dataflow", dataflow_tests);
    ]
