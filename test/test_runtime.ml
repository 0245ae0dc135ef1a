(* Tests for the host runtime: the reference-counted data environment, the
   executor's device semantics, timing charges, and the event trace. *)

open Ftn_interp
open Ftn_hlsim
open Ftn_runtime

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let key ?(space = 1) name = Data_env.key ~name ~memory_space:space

let data_env_tests =
  [
    tc "refcounting lifecycle" (fun () ->
        let env = Data_env.create () in
        check Alcotest.bool "absent" false (Data_env.exists env (key "a"));
        Data_env.acquire env (key "a");
        check Alcotest.bool "live" true (Data_env.exists env (key "a"));
        Data_env.acquire env (key "a");
        check Alcotest.int "count 2" 2 (Data_env.refcount env (key "a"));
        Data_env.release env (key "a");
        check Alcotest.bool "still live" true
          (Data_env.exists env (key "a"));
        Data_env.release env (key "a");
        check Alcotest.bool "dead" false (Data_env.exists env (key "a")));
    tc "release never goes negative" (fun () ->
        let env = Data_env.create () in
        Data_env.release env (key "a");
        check Alcotest.int "zero" 0 (Data_env.refcount env (key "a"));
        Data_env.acquire env (key "a");
        check Alcotest.int "one" 1 (Data_env.refcount env (key "a")));
    tc "alloc reuse by shape" (fun () ->
        let env = Data_env.create () in
        let b1, fresh1 =
          Data_env.alloc env (key "x") ~elt:Ftn_ir.Types.F32 ~shape:[ 8 ]
        in
        check Alcotest.bool "first is fresh" true fresh1;
        Rtval.store b1 [ 0 ] (Rtval.Float 1.5);
        let b2, fresh2 =
          Data_env.alloc env (key "x") ~elt:Ftn_ir.Types.F32 ~shape:[ 8 ]
        in
        check Alcotest.bool "reused" false fresh2;
        check Alcotest.bool "same storage" true
          (Rtval.load b2 [ 0 ] = Rtval.Float 1.5);
        let _, fresh3 =
          Data_env.alloc env (key "x") ~elt:Ftn_ir.Types.F32 ~shape:[ 16 ]
        in
        check Alcotest.bool "reshape is fresh" true fresh3);
    tc "memory spaces are independent" (fun () ->
        let env = Data_env.create () in
        Data_env.acquire env (key "a");
        check Alcotest.bool "space 2 empty" false
          (Data_env.exists env (key ~space:2 "a")));
    tc "lookup_exn on missing data raises" (fun () ->
        let env = Data_env.create () in
        try
          ignore (Data_env.lookup_exn env (key "ghost"));
          Alcotest.fail "expected exception"
        with Data_env.Device_data_error _ -> ());
    tc "live_names lists acquired data" (fun () ->
        let env = Data_env.create () in
        Data_env.acquire env (key "b");
        Data_env.acquire env (key "a");
        check (Alcotest.list Alcotest.string) "sorted" [ "1:a"; "1:b" ]
          (Data_env.live_names env));
  ]

(* A compiled SAXPY run shared across executor tests. *)
let saxpy_run n =
  Core.Run.run (Ftn_linpack.Fortran_sources.saxpy ~n)

let executor_tests =
  [
    tc "kernel executes and produces correct numbers" (fun () ->
        let n = 64 in
        let run = saxpy_run n in
        let x, y = Ftn_linpack.References.saxpy_inputs ~n in
        Ftn_linpack.References.saxpy ~a:2.0 ~x ~y;
        match Core.Run.device_floats run ~name:"y" with
        | Some got ->
          Array.iteri
            (fun i v ->
              if Float.abs (v -. y.(i)) > 1e-6 then
                Alcotest.failf "y(%d) = %f, want %f" i v y.(i))
            got
        | None -> Alcotest.fail "y not on device");
    tc "timing components add up" (fun () ->
        let run = saxpy_run 64 in
        let r = run.Core.Run.exec in
        check (Alcotest.float 1e-12) "sum"
          r.Executor.device_time_s
          (r.Executor.kernel_time_s +. r.Executor.transfer_time_s
          +. r.Executor.overhead_time_s +. r.Executor.fallback_time_s));
    tc "running totals match trace-folded totals" (fun () ->
        (* The times and launches folded from the trace must agree
           exactly with the scheduler's running per-device totals, which
           it accumulates on its own as each charge is submitted. Drive
           the host API directly on a scheduler of its own, once clean
           and once with a watchdog timeout and its retry on the first
           launch and a second launch that falls back to the CPU. *)
        let n = 32 in
        let spec = Fpga_spec.u280 in
        let bitstream =
          Synth.synthesise ~frontend:Resources.Clang_hls ~spec
            ~xclbin_name:"crosscheck.xclbin"
            (Ftn_linpack.Hls_baselines.saxpy_device ~n)
        in
        let plan =
          match
            Ftn_fault.Fault.parse_plan "timeout:nth=1,launch:nth=2:persistent"
          with
          | Ok p -> p
          | Error msg -> failwith msg
        in
        List.iter
          (fun faults ->
            let ctx =
              Executor.create_context ~diag:(Ftn_diag.Diag_engine.create ())
                ?faults bitstream
            in
            let x, y = Ftn_linpack.References.saxpy_inputs ~n in
            let hx = Rtval.of_float_array Ftn_ir.Types.F32 x in
            let hy = Rtval.of_float_array Ftn_ir.Types.F32 y in
            let ha =
              Rtval.of_float_array ~shape:[] Ftn_ir.Types.F32 [| 2.0 |]
            in
            let dx =
              Executor.api_alloc ctx ~name:"x" ~memory_space:1
                ~elt:Ftn_ir.Types.F32 ~shape:[ n ]
            in
            let dy =
              Executor.api_alloc ctx ~name:"y" ~memory_space:1
                ~elt:Ftn_ir.Types.F32 ~shape:[ n ]
            in
            let da =
              Executor.api_alloc ctx ~name:"a" ~memory_space:1
                ~elt:Ftn_ir.Types.F32 ~shape:[]
            in
            Executor.api_transfer ctx ~src:hx ~dst:dx;
            Executor.api_transfer ctx ~src:hy ~dst:dy;
            Executor.api_transfer ctx ~src:ha ~dst:da;
            let args = [ Rtval.Buf dx; Rtval.Buf dy; Rtval.Buf da ] in
            Executor.api_launch ctx ~kernel:"saxpy_hw" args;
            Executor.api_launch ctx ~kernel:"saxpy_hw" args;
            Executor.api_transfer ctx ~src:dy ~dst:hy;
            let r = Executor.result_of_context ctx in
            let kernel = r.Executor.kernel_time_s
            and transfer = r.Executor.transfer_time_s
            and overhead = r.Executor.overhead_time_s in
            let what = if faults = None then "clean" else "faulted" in
            check Alcotest.bool (what ^ ": kernel > 0") true (kernel > 0.0);
            check Alcotest.bool (what ^ ": transfer > 0") true
              (transfer > 0.0);
            check Alcotest.bool (what ^ ": overhead > 0") true
              (overhead > 0.0);
            check Alcotest.int (what ^ ": retries")
              (if faults = None then 0 else 4)
              r.Executor.retries;
            check Alcotest.int (what ^ ": cpu fallbacks")
              (if faults = None then 0 else 1)
              r.Executor.cpu_fallbacks;
            let ds =
              match Scheduler.snapshot (Executor.context_scheduler ctx) with
              | [ ds ] -> ds
              | _ -> Alcotest.fail "one device"
            in
            List.iter
              (fun (track, running, folded) ->
                check (Alcotest.float 0.0) (what ^ ": " ^ track) running
                  folded)
              [
                ("kernel", ds.Scheduler.ds_kernel_s, kernel);
                ("transfer", ds.Scheduler.ds_transfer_s, transfer);
                ("overhead", ds.Scheduler.ds_overhead_s, overhead);
                ("fallback", ds.Scheduler.ds_fallback_s,
                 r.Executor.fallback_time_s);
              ];
            check Alcotest.int (what ^ ": launches") ds.Scheduler.ds_launches
              r.Executor.kernel_launches)
          [ None; Some plan ]);
    tc "one launch for a single target" (fun () ->
        let run = saxpy_run 64 in
        check Alcotest.int "launches" 1 run.Core.Run.exec.Executor.kernel_launches);
    tc "transferred bytes match mapped data" (fun () ->
        let n = 64 in
        let run = saxpy_run n in
        (* x in (4n), y in (4n), a in (4), y out (4n) *)
        check Alcotest.int "bytes" ((3 * 4 * n) + 4)
          run.Core.Run.exec.Executor.bytes_transferred);
    tc "trace records allocs, transfers, launch" (fun () ->
        let run = saxpy_run 16 in
        let events = Trace.events run.Core.Run.exec.Executor.trace in
        let allocs =
          List.length
            (List.filter (function Trace.Alloc _ -> true | _ -> false) events)
        in
        let transfers =
          List.length
            (List.filter (function Trace.Transfer _ -> true | _ -> false) events)
        in
        check Alcotest.int "allocs" 3 allocs;
        check Alcotest.int "transfers" 4 transfers);
    tc "sgesl reuses buffers after the first iteration" (fun () ->
        let n = 16 in
        let run = Core.Run.run (Ftn_linpack.Fortran_sources.sgesl ~n) in
        let events = Trace.events run.Core.Run.exec.Executor.trace in
        let allocs =
          List.length
            (List.filter (function Trace.Alloc _ -> true | _ -> false) events)
        in
        (* b, a, t, k allocated once each despite n-1 launches (n is a
           named constant, folded at compile time) *)
        check Alcotest.int "four allocs" 4 allocs;
        check Alcotest.int "launches" (n - 1)
          run.Core.Run.exec.Executor.kernel_launches);
    tc "program output is captured" (fun () ->
        let run = saxpy_run 16 in
        check Alcotest.bool "has saxpy" true
          (Astring_like.contains (Core.Run.output run) "saxpy"));
    tc "missing kernel raises" (fun () ->
        let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:8) in
        (* synthesise a bitstream for a DIFFERENT kernel *)
        let wrong_bs =
          Synth.synthesise ~spec:Fpga_spec.u280
            (Ftn_linpack.Hls_baselines.saxpy_device ~n:8)
        in
        try
          ignore
            (Executor.run ~host:art.Core.Compiler.host ~bitstream:wrong_bs ());
          Alcotest.fail "expected error"
        with Ftn_fault.Fault.Error (Ftn_fault.Fault.Missing_kernel _, _) -> ());
    tc "host API mirrors interpreted flow" (fun () ->
        (* the hand-written baseline and the compiled flow agree numerically *)
        let n = 32 in
        let run = saxpy_run n in
        let hand = Ftn_linpack.Hls_baselines.run_saxpy ~n () in
        let got = Option.get (Core.Run.device_floats run ~name:"y") in
        Array.iteri
          (fun i v ->
            if Float.abs (v -. hand.Ftn_linpack.Hls_baselines.values.(i)) > 1e-6
            then Alcotest.failf "mismatch at %d" i)
          got);
    tc "kernel time equal between flows (paper Tables 1-2)" (fun () ->
        let n = 64 in
        let run = saxpy_run n in
        let hand = Ftn_linpack.Hls_baselines.run_saxpy ~n () in
        check (Alcotest.float 1e-9) "same kernel time"
          run.Core.Run.exec.Executor.kernel_time_s
          hand.Ftn_linpack.Hls_baselines.result.Executor.kernel_time_s);
    tc "cpu mode runs without a device" (fun () ->
        let out, steps =
          Core.Run.run_cpu (Ftn_linpack.Fortran_sources.saxpy ~n:16)
        in
        check Alcotest.bool "output" true (Astring_like.contains out "saxpy");
        check Alcotest.bool "did work" true (steps > 100));
    tc "cpu and fpga agree numerically" (fun () ->
        let src = Ftn_linpack.Fortran_sources.sgesl ~n:24 in
        let cpu_out, _ = Core.Run.run_cpu src in
        let fpga_run = Core.Run.run src in
        check Alcotest.string "same printed results" cpu_out
          (Core.Run.output fpga_run));
    tc "a compiled sgesl run allocates under 2000 words per launch"
      (fun () ->
        (* The host<->device boundary is staged once per op and the
           artifact's labels are rendered once, so a second run compiles
           nothing and a launch allocates only its records: trace,
           metrics, flight. *)
        let art =
          Core.Compiler.compile (Ftn_linpack.Fortran_sources.sgesl ~n:64)
        in
        let bitstream = Core.Compiler.synthesise art in
        let run () =
          Executor.run ~engine:`Compiled ~host:art.Core.Compiler.host
            ~bitstream ()
        in
        ignore (run ());
        let fns = Ftn_obs.Metrics.counter_value "interp.compiled_fns" in
        let before = Gc.minor_words () in
        let r = run () in
        let per_launch =
          (Gc.minor_words () -. before)
          /. float_of_int r.Executor.kernel_launches
        in
        check Alcotest.int "the second run compiles nothing" fns
          (Ftn_obs.Metrics.counter_value "interp.compiled_fns");
        if per_launch > 2000.0 then
          Alcotest.failf "%.0f minor words per launch, over 2000" per_launch);
    tc "a clean rerun of a degraded artifact equals a fresh one" (fun () ->
        let src = Ftn_linpack.Fortran_sources.sgesl ~n:16 in
        let plan =
          match Ftn_fault.Fault.parse_plan "launch:nth=1:persistent" with
          | Ok p -> p
          | Error msg -> failwith msg
        in
        let artifact () =
          let art = Core.Compiler.compile src in
          (art.Core.Compiler.host, Core.Compiler.synthesise art)
        in
        let fields (r : Executor.result) =
          Fmt.str
            "%h %h %h %h %h %h launches=%d bytes=%d degraded=%b drained=%b \
             retries=%d fallbacks=%d faults=%d device=%d"
            r.Executor.device_time_s r.Executor.kernel_time_s
            r.Executor.transfer_time_s r.Executor.overhead_time_s
            r.Executor.fallback_time_s r.Executor.finish_s
            r.Executor.kernel_launches r.Executor.bytes_transferred
            r.Executor.degraded r.Executor.drained r.Executor.retries
            r.Executor.cpu_fallbacks r.Executor.faults_injected
            r.Executor.device
        in
        List.iter
          (fun (engine, name) ->
            let run ?faults (host, bitstream) =
              Executor.run ~engine ~diag:(Ftn_diag.Diag_engine.create ())
                ?faults ~host ~bitstream ()
            in
            let art = artifact () in
            let degraded = run ~faults:plan art in
            check Alcotest.bool (name ^ ": the faulted run degrades") true
              (degraded.Executor.cpu_fallbacks > 0);
            let rerun = run art in
            let fresh = run (artifact ()) in
            check Alcotest.string (name ^ ": output") fresh.Executor.output
              rerun.Executor.output;
            check Alcotest.string (name ^ ": result fields") (fields fresh)
              (fields rerun);
            check Alcotest.bool (name ^ ": trace events") true
              (Trace.events fresh.Executor.trace
              = Trace.events rerun.Executor.trace);
            check Alcotest.string (name ^ ": data environment")
              (Data_env.snapshot fresh.Executor.data)
              (Data_env.snapshot rerun.Executor.data))
          [ (`Tree, "tree"); (`Compiled, "compiled") ]);
    tc "a 50-job run compiles its artifact once" (fun () ->
        let src = Ftn_linpack.Fortran_sources.sgesl ~n:16 in
        let compiled_fns f =
          let c0 = Ftn_obs.Metrics.counter_value "interp.compiled_fns" in
          f ();
          Ftn_obs.Metrics.counter_value "interp.compiled_fns" - c0
        in
        let one = compiled_fns (fun () -> ignore (Core.Run.run src)) in
        let fifty =
          compiled_fns (fun () ->
              let _, _, stats =
                Core.Run.run_jobs
                  ~options:{ Core.Options.default with jobs = 50 }
                  src
              in
              check Alcotest.int "every job ran" 50
                (List.length stats.Jobs.results))
        in
        check Alcotest.bool "a run compiles its functions" true (one > 0);
        check Alcotest.int "50 jobs compile them once" one fifty);
    tc "both engines agree on sgesl n=64 and stencil n=64x5" (fun () ->
        List.iter
          (fun (name, src) ->
            let art = Core.Compiler.compile src in
            let bitstream = Core.Compiler.synthesise art in
            let run engine =
              let s0 = Ftn_obs.Metrics.counter_value "interp.steps" in
              let r =
                Executor.run ~engine ~host:art.Core.Compiler.host ~bitstream ()
              in
              (r, Ftn_obs.Metrics.counter_value "interp.steps" - s0)
            in
            let tree, tree_steps = run `Tree in
            let comp, comp_steps = run `Compiled in
            check Alcotest.string (name ^ " output") tree.Executor.output
              comp.Executor.output;
            check Alcotest.int (name ^ " steps") tree_steps comp_steps;
            check (Alcotest.float 0.0) (name ^ " device time")
              tree.Executor.device_time_s comp.Executor.device_time_s)
          [
            ("sgesl n=64", Ftn_linpack.Fortran_sources.sgesl ~n:64);
            ( "stencil n=64x5",
              Ftn_linpack.Fortran_sources.stencil ~n:64 ~steps:5 );
          ]);
  ]

(* A textual host module running [bad] under an scf.if on its i1 argument,
   for malformed device ops that must fail only when executed. *)
let guarded_host bad =
  Ftn_ir.Ir_parser.parse_module
    (Fmt.str
       "\"builtin.module\"() ({\n\
       \ ^bb0():\n\
       \  \"func.func\"() <{sym_name = @f, function_type = (i1) -> ()}> ({\n\
       \   ^bb0(%%0 : i1):\n\
       \    \"scf.if\"(%%0) ({\n\
       \     ^bb0():\n\
       \      %s loc(\"bad.f90\":5:3 to :5:9)\n\
       \      \"scf.yield\"() : () -> ()\n\
       \    }) : (i1) -> ()\n\
       \    \"func.return\"() : () -> ()\n\
       \  }) : () -> ()\n\
       }) : () -> ()\n"
       bad)

let staging_tests =
  let bitstream =
    lazy
      (Synth.synthesise ~spec:Fpga_spec.u280
         (Ftn_linpack.Hls_baselines.saxpy_device ~n:8))
  in
  let bad_loc = Ftn_diag.Loc.make ~file:"bad.f90" ~line:5 ~col:3 ~end_col:9 () in
  let case name bad =
    tc ("malformed " ^ name ^ " fails only when executed") (fun () ->
        let host = guarded_host bad in
        let run engine flag =
          Executor.run ~engine ~diag:(Ftn_diag.Diag_engine.create ())
            ~entry:"f" ~args:[ Rtval.Bool flag ] ~host
            ~bitstream:(Lazy.force bitstream) ()
        in
        let error_of engine =
          ignore (run engine false);
          match run engine true with
          | _ -> Alcotest.failf "%s: expected a Fault.Error" name
          | exception Ftn_fault.Fault.Error (e, loc) ->
            check Alcotest.bool "at the op's location" true
              (Ftn_diag.Loc.equal bad_loc loc);
            Ftn_fault.Fault.message e
        in
        check Alcotest.string "same error under both engines"
          (error_of `Tree) (error_of `Compiled))
  in
  [
    case "device.data_acquire"
      "\"device.data_acquire\"() <{memory_space = 1 : i32}> : () -> ()";
    case "device.kernel_create"
      "%1 = \"device.kernel_create\"() : () -> (!device.kernelhandle)";
    case "device.counter_get"
      "%1 = \"device.counter_get\"() <{counter = \"bogus\"}> : () -> (i32)";
  ]

let model_tests =
  [
    tc "device time scales linearly for saxpy" (fun () ->
        let t1 = Core.Run.device_time (saxpy_run 1_000) in
        let t2 = Core.Run.device_time (saxpy_run 4_000) in
        (* kernel part quadruples; overheads are shared *)
        let k1 = Core.Run.kernel_time (saxpy_run 1_000) in
        let k2 = Core.Run.kernel_time (saxpy_run 4_000) in
        check Alcotest.bool "kernel 4x" true
          (Float.abs ((k2 /. k1) -. 4.0) < 0.1);
        check Alcotest.bool "total grows" true (t2 > t1));
    tc "sgesl total scales quadratically" (fun () ->
        let t n =
          Core.Run.device_time
            (Core.Run.run (Ftn_linpack.Fortran_sources.sgesl ~n))
        in
        let r = t 256 /. t 128 in
        (* n(n-1)/2 ratio for 256 vs 128 is 4.02; fixed overheads drag the
           observed ratio slightly below that *)
        check Alcotest.bool "about 4x" true (r > 3.2 && r < 4.5));
    tc "fpga power between floor and floor+dynamic" (fun () ->
        let run = saxpy_run 2_048 in
        let p = Core.Run.fpga_power run in
        let spec = Ftn_hlsim.Fpga_spec.u280 in
        check Alcotest.bool "above floor" true
          (p > spec.Ftn_hlsim.Fpga_spec.static_power_w);
        check Alcotest.bool "below ceiling" true
          (p < spec.Ftn_hlsim.Fpga_spec.static_power_w
             +. spec.Ftn_hlsim.Fpga_spec.dynamic_power_full_w *. 1.2));
    tc "echo mode does not change results" (fun () ->
        (* echo only mirrors output to stdout; captured text is the same *)
        let a = Core.Run.run (Ftn_linpack.Fortran_sources.saxpy ~n:16) in
        check Alcotest.bool "has output" true
          (String.length (Core.Run.output a) > 0));
  ]

let () =
  Alcotest.run "runtime"
    [
      ("data-env", data_env_tests);
      ("executor", executor_tests);
      ("staging", staging_tests);
      ("model", model_tests);
    ]
