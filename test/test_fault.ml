(* Tests for the fault-injection framework and the fault-tolerant device
   runtime: plan parsing, injector determinism, the structured error
   taxonomy, retry/backoff accounting, eviction recovery, CPU fallback
   and diagnostics routing — the latter under both interpreter engines. *)

open Ftn_ir
open Ftn_dialects
open Ftn_hlsim
open Ftn_runtime
module Fault = Ftn_fault.Fault
module Injector = Ftn_fault.Injector

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let engines = [ ("tree", `Tree); ("compiled", `Compiled) ]

(* Compiled SAXPY shared by the executor tests (host module + bitstream). *)
let saxpy = lazy (
  let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:32) in
  let bs = Core.Compiler.synthesise art in
  (art.Core.Compiler.host, bs))

let exec ?engine ?faults ?retry ?diag () =
  let host, bitstream = Lazy.force saxpy in
  Executor.run ?engine ?diag ?faults ?retry ~host ~bitstream ()

let plan_of s =
  match Fault.parse_plan s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan %S did not parse: %s" s msg

(* --- plan parsing --- *)

let plan_tests =
  [
    tc "bare kind defaults to first occurrence, transient" (fun () ->
        match (plan_of "transfer").Fault.rules with
        | [ r ] ->
          check Alcotest.bool "kind" true (r.Fault.r_kind = Fault.Transfer_error);
          check Alcotest.bool "trigger" true (r.Fault.r_trigger = Fault.Nth 1);
          check Alcotest.bool "persistence" true
            (r.Fault.r_persistence = Fault.Transient);
          check Alcotest.bool "no kernel" true (r.Fault.r_kernel = None)
        | rs -> Alcotest.failf "expected one rule, got %d" (List.length rs));
    tc "full syntax round-trips through to_string" (fun () ->
        let p = plan_of "timeout@saxpy_hw:nth=2:persistent,alloc:p=0.25" in
        let p' = plan_of (Fault.plan_to_string p) in
        check Alcotest.bool "equal rules" true (p.Fault.rules = p'.Fault.rules));
    tc "every kind parses to its constructor" (fun () ->
        List.iter
          (fun (s, kind) ->
            match (plan_of s).Fault.rules with
            | [ r ] -> check Alcotest.bool s true (r.Fault.r_kind = kind)
            | _ -> Alcotest.fail s)
          [
            ("alloc", Fault.Alloc_failure); ("transfer", Fault.Transfer_error);
            ("launch", Fault.Launch_failure); ("timeout", Fault.Kernel_timeout);
          ]);
    tc "unknown kind is rejected" (fun () ->
        match Fault.parse_plan "dma:nth=1" with
        | Error msg ->
          check Alcotest.bool "names the kind" true
            (Astring_like.contains msg "dma")
        | Ok _ -> Alcotest.fail "expected parse error");
    tc "kernel filter on a non-launch kind is rejected" (fun () ->
        match Fault.parse_plan "alloc@saxpy_hw" with
        | Error msg ->
          check Alcotest.bool "explains" true
            (Astring_like.contains msg "kernel")
        | Ok _ -> Alcotest.fail "expected parse error");
    tc "out-of-range probability is rejected" (fun () ->
        match Fault.parse_plan "transfer:p=1.5" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected parse error");
    tc "empty plan is rejected" (fun () ->
        match Fault.parse_plan "" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected parse error");
    tc "duplicate rule for the same kind is rejected" (fun () ->
        match Fault.parse_plan "launch:nth=1,launch:nth=3" with
        | Error msg ->
          check Alcotest.bool "calls it a duplicate" true
            (Astring_like.contains msg "duplicate")
        | Ok _ -> Alcotest.fail "expected parse error");
    tc "different kinds on the same site still compose" (fun () ->
        (* launch and timeout both arm the launch site but are distinct
           rules; the historic bench plan relies on this. *)
        match Fault.parse_plan "launch:nth=1,timeout:nth=2" with
        | Ok p -> check Alcotest.int "both rules" 2 (List.length p.Fault.rules)
        | Error msg -> Alcotest.failf "rejected: %s" msg);
    tc "same kind scoped to different kernels composes; same kernel is a \
        duplicate" (fun () ->
        (match Fault.parse_plan "launch@saxpy_hw:nth=1,launch@sgesl_hw:nth=1" with
        | Ok p -> check Alcotest.int "both rules" 2 (List.length p.Fault.rules)
        | Error msg -> Alcotest.failf "rejected: %s" msg);
        match Fault.parse_plan "launch@saxpy_hw:nth=1,launch@saxpy_hw:nth=2" with
        | Error msg ->
          check Alcotest.bool "names the kernel" true
            (Astring_like.contains msg "saxpy_hw")
        | Ok _ -> Alcotest.fail "expected parse error");
  ]

(* --- injector --- *)

let injector_tests =
  [
    tc "nth trigger fires exactly on the nth match" (fun () ->
        let inj =
          Injector.create (Fault.plan [ Fault.rule Fault.Transfer_error (Fault.Nth 3) ])
        in
        let fired =
          List.init 5 (fun _ ->
              let tok = Injector.arm inj ~site:Fault.Transfer () in
              Injector.fire tok ~attempt:1 <> None)
        in
        check (Alcotest.list Alcotest.bool) "third only"
          [ false; false; true; false; false ]
          fired);
    tc "transient faults clear on the second attempt" (fun () ->
        let inj =
          Injector.create (Fault.plan [ Fault.rule Fault.Launch_failure (Fault.Nth 1) ])
        in
        let tok = Injector.arm inj ~site:Fault.Launch () in
        check Alcotest.bool "attempt 1 fails" true
          (Injector.fire tok ~attempt:1 <> None);
        check Alcotest.bool "attempt 2 clears" true
          (Injector.fire tok ~attempt:2 = None));
    tc "persistent faults survive attempts until cured" (fun () ->
        let inj =
          Injector.create
            (Fault.plan
               [ Fault.rule ~persistence:Fault.Persistent Fault.Alloc_failure
                   (Fault.Nth 1) ])
        in
        let tok = Injector.arm inj ~site:Fault.Alloc () in
        check Alcotest.bool "attempt 1" true (Injector.fire tok ~attempt:1 <> None);
        check Alcotest.bool "attempt 2" true (Injector.fire tok ~attempt:2 <> None);
        Injector.cure tok;
        check Alcotest.bool "cured" true (Injector.fire tok ~attempt:3 = None));
    tc "kernel filter only matches the named kernel" (fun () ->
        let inj =
          Injector.create
            (Fault.plan
               [ Fault.rule ~kernel:"k1" Fault.Launch_failure (Fault.Nth 1) ])
        in
        let t0 = Injector.arm inj ~site:Fault.Launch ~kernel:"other" () in
        check Alcotest.bool "other kernel clean" true
          (Injector.fire t0 ~attempt:1 = None);
        let t1 = Injector.arm inj ~site:Fault.Launch ~kernel:"k1" () in
        (match Injector.fire t1 ~attempt:1 with
        | Some f -> check (Alcotest.option Alcotest.string) "kernel recorded"
            (Some "k1") f.Fault.kernel
        | None -> Alcotest.fail "expected fault"));
    tc "probability extremes fire always and never" (fun () ->
        let fired_count p =
          let inj =
            Injector.create
              (Fault.plan ~seed:7 [ Fault.rule Fault.Transfer_error (Fault.Probability p) ])
          in
          List.length
            (List.filter
               (fun _ ->
                 let tok = Injector.arm inj ~site:Fault.Transfer () in
                 Injector.fire tok ~attempt:1 <> None)
               (List.init 20 Fun.id))
        in
        check Alcotest.int "p=1 always" 20 (fired_count 1.0);
        check Alcotest.int "p=0 never" 0 (fired_count 0.0));
    tc "same plan and seed replay identically" (fun () ->
        let trace () =
          let inj =
            Injector.create
              (Fault.plan ~seed:42
                 [ Fault.rule Fault.Transfer_error (Fault.Probability 0.4);
                   Fault.rule Fault.Alloc_failure (Fault.Probability 0.3) ])
          in
          List.map
            (fun i ->
              let site = if i mod 2 = 0 then Fault.Transfer else Fault.Alloc in
              let tok = Injector.arm inj ~site () in
              Injector.fire tok ~attempt:1 <> None)
            (List.init 60 Fun.id)
        in
        check (Alcotest.list Alcotest.bool) "deterministic" (trace ()) (trace ()));
    tc "injected counts each failing attempt" (fun () ->
        let inj =
          Injector.create
            (Fault.plan
               [ Fault.rule ~persistence:Fault.Persistent Fault.Launch_failure
                   (Fault.Nth 1) ])
        in
        let tok = Injector.arm inj ~site:Fault.Launch () in
        ignore (Injector.fire tok ~attempt:1);
        ignore (Injector.fire tok ~attempt:2);
        check Alcotest.int "two" 2 (Injector.injected inj));
  ]

(* --- error taxonomy --- *)

let some_fault =
  {
    Fault.kind = Fault.Transfer_error;
    persistence = Fault.Persistent;
    occurrence = 2;
    kernel = None;
    attempt = 4;
  }

let error_tests =
  [
    tc "every constructor has a distinct code and a message" (fun () ->
        let errors =
          [
            Fault.Retries_exhausted { fault = some_fault; attempts = 4 };
            Fault.Transfer_mismatch
              { src_elt = "f32"; dst_elt = "f64"; src_bytes = 32; dst_bytes = 64 };
            Fault.Missing_kernel { kernel = "k"; xclbin = "a.xclbin" };
            Fault.Invalid_host { op = "device.alloc"; reason = "broken" };
          ]
        in
        let codes = List.map Fault.error_code errors in
        check Alcotest.int "codes distinct"
          (List.length codes)
          (List.length (List.sort_uniq compare codes));
        List.iter
          (fun e ->
            check Alcotest.bool "message nonempty" true
              (String.length (Fault.message e) > 0))
          errors);
    tc "messages carry the distinguishing detail" (fun () ->
        check Alcotest.bool "attempts" true
          (Astring_like.contains
             (Fault.message (Fault.Retries_exhausted { fault = some_fault; attempts = 4 }))
             "4 attempts");
        check Alcotest.bool "elt types" true
          (Astring_like.contains
             (Fault.message
                (Fault.Transfer_mismatch
                   { src_elt = "f32"; dst_elt = "f64"; src_bytes = 32; dst_bytes = 64 }))
             "f64");
        check Alcotest.bool "xclbin" true
          (Astring_like.contains
             (Fault.message (Fault.Missing_kernel { kernel = "k"; xclbin = "a.xclbin" }))
             "a.xclbin"));
    tc "exception printer includes the location" (fun () ->
        let loc = Ftn_diag.Loc.make ~file:"t.f90" ~line:9 ~col:1 () in
        let s =
          Printexc.to_string
            (Fault.Error (Fault.Invalid_host { op = "x"; reason = "y" }, loc))
        in
        check Alcotest.bool "file named" true (Astring_like.contains s "t.f90"));
  ]

(* --- executor fault sites, under both engines --- *)

let snapshot (r : Executor.result) = Data_env.snapshot r.Executor.data

let site_tests_for (ename, engine) =
  let clean () = exec ~engine ~diag:(Ftn_diag.Diag_engine.create ()) () in
  let faulty plan =
    exec ~engine ~faults:(plan_of plan) ~diag:(Ftn_diag.Diag_engine.create ()) ()
  in
  [
    tc (ename ^ ": transient transfer fault is transparent") (fun () ->
        let a = clean () and b = faulty "transfer:nth=1" in
        check Alcotest.string "output" a.Executor.output b.Executor.output;
        check Alcotest.string "data env" (snapshot a) (snapshot b);
        check Alcotest.bool "injected" true (b.Executor.faults_injected > 0);
        check Alcotest.bool "retried" true (b.Executor.retries > 0);
        check Alcotest.bool "not degraded" false b.Executor.degraded;
        check Alcotest.bool "costs time" true
          (b.Executor.device_time_s > a.Executor.device_time_s);
        (* the re-issued transfer is charged exactly once *)
        check (Alcotest.float 0.0) "transfer track unchanged"
          a.Executor.transfer_time_s b.Executor.transfer_time_s);
    tc (ename ^ ": transient alloc fault is transparent") (fun () ->
        let a = clean () and b = faulty "alloc:nth=1" in
        check Alcotest.string "output" a.Executor.output b.Executor.output;
        check Alcotest.string "data env" (snapshot a) (snapshot b);
        check Alcotest.bool "injected" true (b.Executor.faults_injected > 0));
    tc (ename ^ ": transient launch fault never double-charges the kernel")
      (fun () ->
        let a = clean () and b = faulty "launch:nth=1" in
        check Alcotest.string "output" a.Executor.output b.Executor.output;
        check Alcotest.int "one launch" a.Executor.kernel_launches
          b.Executor.kernel_launches;
        (* regression: the failed attempt must charge backoff only, so the
           kernel track of the faulted run equals the clean run exactly *)
        check (Alcotest.float 0.0) "kernel track unchanged"
          a.Executor.kernel_time_s b.Executor.kernel_time_s);
    tc (ename ^ ": transient timeout charges the watchdog to overheads")
      (fun () ->
        let a = clean () and b = faulty "timeout:nth=1" in
        check Alcotest.string "output" a.Executor.output b.Executor.output;
        check Alcotest.bool "watchdog charged" true
          (b.Executor.overhead_time_s
          >= a.Executor.overhead_time_s +. Fault.default_retry.Fault.timeout_s);
        check (Alcotest.float 0.0) "kernel track unchanged"
          a.Executor.kernel_time_s b.Executor.kernel_time_s);
    tc (ename ^ ": persistent launch fault degrades to the CPU") (fun () ->
        let a = clean () and b = faulty "launch:nth=1:persistent" in
        check Alcotest.string "output still correct" a.Executor.output
          b.Executor.output;
        check Alcotest.bool "degraded" true b.Executor.degraded;
        check Alcotest.int "one fallback" 1 b.Executor.cpu_fallbacks;
        check Alcotest.bool "fallback time charged" true
          (b.Executor.fallback_time_s > 0.0);
        check (Alcotest.float 0.0) "kernel never ran on device" 0.0
          b.Executor.kernel_time_s);
    tc (ename ^ ": persistent timeout also degrades") (fun () ->
        let a = clean () and b = faulty "timeout:nth=1:persistent" in
        check Alcotest.string "output" a.Executor.output b.Executor.output;
        check Alcotest.bool "degraded" true b.Executor.degraded);
    tc (ename ^ ": persistent transfer fault exhausts retries") (fun () ->
        let diag = Ftn_diag.Diag_engine.create () in
        (try
           ignore (exec ~engine ~faults:(plan_of "transfer:nth=1:persistent") ~diag ());
           Alcotest.fail "expected Retries_exhausted"
         with Fault.Error (Fault.Retries_exhausted { attempts; _ }, _) ->
           check Alcotest.int "attempts" Fault.default_retry.Fault.max_attempts
             attempts);
        (* the escaping error is mirrored into the diagnostics engine *)
        check Alcotest.bool "diagnosed" true (Ftn_diag.Diag_engine.has_errors diag));
    tc (ename ^ ": handler errors carry the faulting op's location") (fun () ->
        let _, bitstream = Lazy.force saxpy in
        let loc = Ftn_diag.Loc.make ~file:"bad.f90" ~line:7 ~col:3 () in
        let bad =
          Op.set_loc (Op.make "device.data_acquire") loc
        in
        let host =
          Op.module_op
            [ Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
                [ bad; Func_d.return () ] ]
        in
        let diag = Ftn_diag.Diag_engine.create () in
        try
          ignore (Executor.run ~engine ~diag ~entry:"f" ~host ~bitstream ());
          Alcotest.fail "expected Invalid_host"
        with Fault.Error (Fault.Invalid_host _, eloc) ->
          check Alcotest.bool "location known" true (Ftn_diag.Loc.is_known eloc);
          check Alcotest.bool "is the op's location" true
            (Ftn_diag.Loc.equal loc eloc));
  ]

(* --- host-API errors, recovery and the leak report --- *)

let api_ctx ?faults ?diag () =
  let spec = Fpga_spec.u280 in
  let bitstream =
    Synth.synthesise ~frontend:Resources.Clang_hls ~spec
      ~xclbin_name:"fault.xclbin"
      (Ftn_linpack.Hls_baselines.saxpy_device ~n:16)
  in
  Executor.create_context ?faults ?diag bitstream

let api_tests =
  [
    tc "transfer size mismatch raises a structured error" (fun () ->
        let ctx = api_ctx () in
        let src = Ftn_interp.Rtval.alloc_buffer Types.F32 [ 8 ] in
        let dst = Ftn_interp.Rtval.alloc_buffer ~memory_space:1 Types.F32 [ 4 ] in
        try
          Executor.api_transfer ctx ~src ~dst;
          Alcotest.fail "expected Transfer_mismatch"
        with
        | Fault.Error (Fault.Transfer_mismatch { src_bytes; dst_bytes; _ }, _) ->
          check Alcotest.int "src bytes" 32 src_bytes;
          check Alcotest.int "dst bytes" 16 dst_bytes);
    tc "transfer element type mismatch raises even at equal byte size"
      (fun () ->
        let ctx = api_ctx () in
        let src = Ftn_interp.Rtval.alloc_buffer Types.F32 [ 8 ] in
        let dst = Ftn_interp.Rtval.alloc_buffer ~memory_space:1 Types.F64 [ 4 ] in
        try
          Executor.api_transfer ctx ~src ~dst;
          Alcotest.fail "expected Transfer_mismatch"
        with Fault.Error (Fault.Transfer_mismatch { src_elt; dst_elt; _ }, _) ->
          check Alcotest.bool "elts differ" true (src_elt <> dst_elt));
    tc "an allocation whose size overflows is a program error" (fun () ->
        let diag = Ftn_diag.Diag_engine.create () in
        let ctx = api_ctx ~diag () in
        try
          ignore
            (Executor.api_alloc ctx ~name:"a" ~memory_space:1 ~elt:Types.F32
               ~shape:[ 2_000_000_000; 2_000_000_000 ]);
          Alcotest.fail "expected a diagnostic"
        with Ftn_diag.Diag.Diag_failure [ d ] ->
          check Alcotest.bool "names the type and shape" true
            (Astring_like.contains d.Ftn_diag.Diag.message
               "cannot allocate f32[2000000000x2000000000]");
          check Alcotest.int "recorded" 1
            (Ftn_diag.Diag_engine.error_count diag));
    tc "launching an unknown kernel raises Missing_kernel" (fun () ->
        let ctx = api_ctx () in
        try
          Executor.api_launch ctx ~kernel:"ghost_hw" [];
          Alcotest.fail "expected Missing_kernel"
        with Fault.Error (Fault.Missing_kernel { kernel; xclbin }, _) ->
          check Alcotest.string "kernel" "ghost_hw" kernel;
          check Alcotest.string "xclbin" "fault.xclbin" xclbin);
    tc "persistent alloc fault recovers by evicting unpinned buffers"
      (fun () ->
        let diag = Ftn_diag.Diag_engine.create () in
        let ctx = api_ctx ~faults:(plan_of "alloc:nth=2:persistent") ~diag () in
        let _a =
          Executor.api_alloc ctx ~name:"a" ~memory_space:1 ~elt:Types.F32
            ~shape:[ 16 ]
        in
        (* "a" has refcount 0, so the OOM on "b" can evict it and retry *)
        let _b =
          Executor.api_alloc ctx ~name:"b" ~memory_space:1 ~elt:Types.F32
            ~shape:[ 16 ]
        in
        let r = Executor.result_of_context ctx in
        check Alcotest.bool "retried" true (r.Executor.retries > 0);
        check Alcotest.bool "a evicted" true
          (Data_env.lookup r.Executor.data
             (Data_env.key ~name:"a" ~memory_space:1)
          = None);
        check Alcotest.bool "b allocated" true
          (Data_env.lookup r.Executor.data
             (Data_env.key ~name:"b" ~memory_space:1)
          <> None);
        check Alcotest.bool "recovery warned" true
          (Ftn_diag.Diag_engine.warning_count diag > 0));
    tc "persistent alloc fault with nothing evictable exhausts retries"
      (fun () ->
        let ctx = api_ctx ~faults:(plan_of "alloc:nth=1:persistent")
            ~diag:(Ftn_diag.Diag_engine.create ()) () in
        try
          ignore
            (Executor.api_alloc ctx ~name:"a" ~memory_space:1 ~elt:Types.F32
               ~shape:[ 16 ]);
          Alcotest.fail "expected Retries_exhausted"
        with Fault.Error (Fault.Retries_exhausted _, _) -> ());
    tc "teardown reports reference-count leaks" (fun () ->
        let _, bitstream = Lazy.force saxpy in
        let host =
          Op.module_op
            [ Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
                [ Device.data_acquire ~name:"x" ~memory_space:1;
                  Func_d.return () ] ]
        in
        let diag = Ftn_diag.Diag_engine.create () in
        let metric0 = Ftn_obs.Metrics.counter_value "data_env.leaked" in
        ignore (Executor.run ~diag ~entry:"f" ~host ~bitstream ());
        check Alcotest.int "metric bumped" (metric0 + 1)
          (Ftn_obs.Metrics.counter_value "data_env.leaked");
        check Alcotest.bool "warned" true
          (List.exists
             (fun (d : Ftn_diag.Diag.t) ->
               Astring_like.contains d.Ftn_diag.Diag.message "teardown")
             (Ftn_diag.Diag_engine.warnings diag)));
    tc "fault metrics and trace events are recorded" (fun () ->
        let injected0 = Ftn_obs.Metrics.counter_value "fault.injected" in
        let b =
          exec ~faults:(plan_of "launch:nth=1:persistent")
            ~diag:(Ftn_diag.Diag_engine.create ()) ()
        in
        check Alcotest.bool "metric" true
          (Ftn_obs.Metrics.counter_value "fault.injected" > injected0);
        let events = Trace.events b.Executor.trace in
        check Alcotest.bool "fault events" true
          (List.exists (function Trace.Fault _ -> true | _ -> false) events);
        check Alcotest.bool "fallback event" true
          (List.exists (function Trace.Fallback _ -> true | _ -> false) events));
  ]

(* --- flight recorder dumps --- *)

let flight_tests =
  [
    tc "persistent launch fault dumps a flight excerpt with the op's loc"
      (fun () ->
        Ftn_obs.Flight.clear ();
        let diag = Ftn_diag.Diag_engine.create () in
        ignore (exec ~faults:(plan_of "launch:nth=1:persistent") ~diag ());
        match
          List.find_opt
            (fun (d : Ftn_diag.Diag.t) ->
              Astring_like.contains d.Ftn_diag.Diag.message "flight recorder")
            (Ftn_diag.Diag_engine.warnings diag)
        with
        | None -> Alcotest.fail "no flight-recorder dump in the warnings"
        | Some d ->
          let msg = d.Ftn_diag.Diag.message in
          check Alcotest.bool "shows the failing launch" true
            (Astring_like.contains msg "device.kernel_launch");
          check Alcotest.bool "shows the injected fault" true
            (Astring_like.contains msg "fault");
          (* the kernel ops carry the omp.target's source location *)
          check Alcotest.bool "entries carry a loc" true
            (Astring_like.contains msg "@ "));
    tc "ring is bounded: dump holds recent events only" (fun () ->
        Ftn_obs.Flight.clear ();
        let cap0 = Ftn_obs.Flight.capacity () in
        Ftn_obs.Flight.set_capacity 8;
        Fun.protect
          ~finally:(fun () -> Ftn_obs.Flight.set_capacity cap0)
          (fun () ->
            ignore
              (exec ~faults:(plan_of "launch:nth=1:persistent")
                 ~diag:(Ftn_diag.Diag_engine.create ()) ());
            check Alcotest.int "bounded" 8 (Ftn_obs.Flight.length ());
            check Alcotest.bool "older events dropped" true
              (Ftn_obs.Flight.dropped () > 0)));
    tc "flight_note is empty when nothing was recorded" (fun () ->
        Ftn_obs.Flight.clear ();
        check Alcotest.string "empty" "" (Fault.flight_note ()));
  ]

let () =
  Alcotest.run "fault"
    [
      ("plan", plan_tests);
      ("injector", injector_tests);
      ("errors", error_tests);
      ("sites-tree", site_tests_for (List.nth engines 0));
      ("sites-compiled", site_tests_for (List.nth engines 1));
      ("api", api_tests);
      ("flight", flight_tests);
    ]
