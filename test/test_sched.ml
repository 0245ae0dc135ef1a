(* Tests for the async multi-device runtime: the event graph and
   scheduler, real kernel_wait semantics, per-device degradation, queue
   wait measured on the owning device's timeline, peer drain after a
   persistent device fault, the job queue, and the determinism property
   that any job DAG produces byte-identical output whatever the device
   count. *)

open Ftn_ir
open Ftn_interp
open Ftn_hlsim
open Ftn_runtime
module Fault = Ftn_fault.Fault

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let saxpy_bitstream n =
  Synth.synthesise ~frontend:Resources.Clang_hls ~spec:Fpga_spec.u280
    ~xclbin_name:"sched.xclbin"
    (Ftn_linpack.Hls_baselines.saxpy_device ~n)

(* Drive one SAXPY through the host API on [ctx]; returns the device
   buffers so callers can launch again. *)
let stage_saxpy ctx n =
  let x, y = Ftn_linpack.References.saxpy_inputs ~n in
  let hx = Rtval.of_float_array Types.F32 x in
  let hy = Rtval.of_float_array Types.F32 y in
  let ha = Rtval.of_float_array ~shape:[] Types.F32 [| 2.0 |] in
  let dx = Executor.api_alloc ctx ~name:"x" ~memory_space:1 ~elt:Types.F32 ~shape:[ n ] in
  let dy = Executor.api_alloc ctx ~name:"y" ~memory_space:1 ~elt:Types.F32 ~shape:[ n ] in
  let da = Executor.api_alloc ctx ~name:"a" ~memory_space:1 ~elt:Types.F32 ~shape:[] in
  Executor.api_transfer ctx ~src:hx ~dst:dx;
  Executor.api_transfer ctx ~src:hy ~dst:dy;
  Executor.api_transfer ctx ~src:ha ~dst:da;
  [ Rtval.Buf dx; Rtval.Buf dy; Rtval.Buf da ]

let persistent_plan =
  match Fault.parse_plan "launch:nth=1:persistent" with
  | Ok p -> p
  | Error m -> Fmt.failwith "bad plan: %s" m

(* --- scheduler and event units --- *)

let submit ?(lane = Event.Compute) ?(track = Event.Kernel) ?ready_s ?(deps = [])
    sched dev ~submit_s ~dur_s =
  Scheduler.submit sched ~device:dev ~lane ~track ~submit_s
    ?ready_s ~deps ~dur_s ()

let scheduler_tests =
  [
    tc "start is max of ready, lane and deps; lane advances" (fun () ->
        let s = Scheduler.create () in
        let d = Scheduler.device s 0 in
        let a = submit s d ~submit_s:0.0 ~dur_s:2.0 in
        check (Alcotest.float 0.0) "first starts at ready" 0.0 a.Event.ev_start_s;
        (* same lane: queues behind a *)
        let b = submit s d ~submit_s:0.5 ~dur_s:1.0 in
        check (Alcotest.float 0.0) "queued behind lane" 2.0 b.Event.ev_start_s;
        check (Alcotest.float 0.0) "queue wait from submit" 1.5
          (Event.queue_wait_s b);
        (* other lane is free, but the dependency gates it *)
        let c =
          submit s d ~lane:Event.Copy_in ~track:Event.Transfer ~submit_s:0.0
            ~deps:[ b ] ~dur_s:0.5
        in
        check (Alcotest.float 0.0) "dep gates start" 3.0 c.Event.ev_start_s;
        check (Alcotest.float 0.0) "finish" 3.5 c.Event.ev_finish_s;
        check Alcotest.bool "deps recorded" true
          (List.mem b.Event.ev_id c.Event.ev_deps));
    tc "lanes are independent engines" (fun () ->
        let s = Scheduler.create () in
        let d = Scheduler.device s 0 in
        ignore (submit s d ~submit_s:0.0 ~dur_s:5.0);
        let t =
          submit s d ~lane:Event.Copy_in ~track:Event.Transfer ~submit_s:0.0
            ~dur_s:1.0
        in
        check (Alcotest.float 0.0) "transfer overlaps compute" 0.0
          t.Event.ev_start_s;
        let o =
          submit s d ~lane:Event.Copy_out ~track:Event.Transfer ~submit_s:0.0
            ~dur_s:1.0
        in
        check (Alcotest.float 0.0) "duplex DMA: d2h overlaps h2d" 0.0
          o.Event.ev_start_s);
    tc "elapsed is the makespan, busy the sum" (fun () ->
        let s = Scheduler.create ~devices:2 () in
        let d0 = Scheduler.device s 0 and d1 = Scheduler.device s 1 in
        ignore (submit s d0 ~submit_s:0.0 ~dur_s:2.0);
        ignore (submit s d1 ~submit_s:0.0 ~dur_s:3.0);
        ignore
          (submit s d1 ~lane:Event.Copy_in ~track:Event.Transfer ~submit_s:0.0
             ~dur_s:1.0);
        check (Alcotest.float 0.0) "makespan" 3.0 (Scheduler.elapsed_s s);
        check (Alcotest.float 0.0) "busy sums tracks" 4.0
          (Scheduler.device_busy_s d1));
    tc "pick_device is least-loaded, ties to lowest id" (fun () ->
        let s = Scheduler.create ~devices:3 () in
        check Alcotest.int "fresh picks 0" 0
          (Scheduler.pick_device s).Scheduler.dev_id;
        ignore (submit s (Scheduler.device s 0) ~submit_s:0.0 ~dur_s:1.0);
        check Alcotest.int "then 1" 1
          (Scheduler.pick_device s).Scheduler.dev_id);
    tc "failed devices are skipped; all-failed raises" (fun () ->
        let s = Scheduler.create ~devices:2 () in
        Scheduler.fail_device s (Scheduler.device s 0);
        check Alcotest.int "skips failed" 1
          (Scheduler.pick_device s).Scheduler.dev_id;
        check (Alcotest.option Alcotest.int) "peer of 1 is none" None
          (Option.map
             (fun d -> d.Scheduler.dev_id)
             (Scheduler.healthy_peer s ~except:1));
        Scheduler.fail_device s (Scheduler.device s 1);
        (try
           ignore (Scheduler.pick_device s);
           Alcotest.fail "expected Invalid_host"
         with Fault.Error (Fault.Invalid_host _, _) -> ());
        check Alcotest.int "drains counted once per device" 2
          (Scheduler.drains s));
    tc "events overlap test" (fun () ->
        let s = Scheduler.create () in
        let d = Scheduler.device s 0 in
        let a = submit s d ~submit_s:0.0 ~dur_s:2.0 in
        let b =
          submit s d ~lane:Event.Copy_in ~track:Event.Transfer ~submit_s:0.0
            ~dur_s:1.0
        in
        check Alcotest.bool "overlap" true (Event.overlaps a b);
        let c = submit s d ~submit_s:2.0 ~dur_s:1.0 in
        check Alcotest.bool "sequential don't overlap" false
          (Event.overlaps a c));
  ]

(* --- kernel_wait semantics (regression: it used to succeed on any
   operand without blocking) --- *)

let wait_host body_fn =
  let b = Builder.create () in
  let args, body = body_fn b in
  let fn = Ftn_dialects.Func_d.func ~sym_name:"f" ~args ~result_tys:[]
      (body @ [ Ftn_dialects.Func_d.return () ])
  in
  Op.module_op [ fn ]

let expect_invalid_wait f =
  try
    ignore (f ());
    Alcotest.fail "expected Invalid_host from device.kernel_wait"
  with
  | Fault.Error (Fault.Invalid_host { op = "device.kernel_wait"; _ }, _) -> ()

let kernel_wait_tests =
  [
    tc "waiting on a never-launched handle raises" (fun () ->
        let host =
          wait_host (fun b ->
              let kc =
                Ftn_dialects.Device.kernel_create b ~args:[]
                  ~device_function:"saxpy_hw" ()
              in
              ([], [ kc; Ftn_dialects.Device.kernel_wait (Op.result1 kc) ]))
        in
        expect_invalid_wait (fun () ->
            Executor.run ~entry:"f" ~host ~bitstream:(saxpy_bitstream 8) ()));
    tc "waiting on a foreign or stale handle raises" (fun () ->
        let host =
          wait_host (fun b ->
              let h = Builder.fresh b Types.Kernel_handle in
              ([ h ], [ Ftn_dialects.Device.kernel_wait h ]))
        in
        expect_invalid_wait (fun () ->
            Executor.run ~entry:"f" ~args:[ Rtval.Handle 424242 ] ~host
              ~bitstream:(saxpy_bitstream 8) ()));
    tc "waiting on a non-handle operand raises" (fun () ->
        let host =
          wait_host (fun b ->
              let h = Builder.fresh b Types.Kernel_handle in
              ([ h ], [ Ftn_dialects.Device.kernel_wait h ]))
        in
        expect_invalid_wait (fun () ->
            Executor.run ~entry:"f" ~args:[ Rtval.Int 3 ] ~host
              ~bitstream:(saxpy_bitstream 8) ()));
    tc "wait genuinely blocks: cursor jumps to the launch's finish" (fun () ->
        let n = 16 in
        let ctx = Executor.create_context (saxpy_bitstream n) in
        let args = stage_saxpy ctx n in
        let ev = Executor.api_launch_async ctx ~kernel:"saxpy_hw" args in
        (* async: outstanding work retires after the current cursor *)
        check Alcotest.bool "launch is async" true
          (Executor.finish_time ctx > 0.0);
        Executor.wait_event ctx ev;
        check (Alcotest.float 0.0) "cursor reached the completion event"
          ev.Event.ev_finish_s (Executor.finish_time ctx));
  ]

(* --- per-device degradation and peer drain --- *)

let fault_tests =
  [
    tc "degradation is per-device: a clean peer stays clean" (fun () ->
        let sched = Scheduler.create ~devices:2 () in
        let d0 = Scheduler.device sched 0 and d1 = Scheduler.device sched 1 in
        let bs = saxpy_bitstream 8 in
        (* drain disabled so the persistent fault exercises cpu_fallback *)
        let retry = { Fault.default_retry with Fault.drain = false } in
        let bad =
          Executor.create_context ~faults:persistent_plan ~retry ~sched
            ~device:d0 bs
        in
        Executor.api_launch bad ~kernel:"saxpy_hw" (stage_saxpy bad 8);
        let rbad = Executor.result_of_context bad in
        check Alcotest.bool "faulted job degraded" true rbad.Executor.degraded;
        check Alcotest.bool "device 0 flagged" true d0.Scheduler.dev_degraded;
        let clean = Executor.create_context ~sched ~device:d1 bs in
        Executor.api_launch clean ~kernel:"saxpy_hw" (stage_saxpy clean 8);
        let rclean = Executor.result_of_context clean in
        check Alcotest.bool "clean job not degraded" false
          rclean.Executor.degraded;
        check Alcotest.bool "device 1 unflagged" false
          d1.Scheduler.dev_degraded);
    tc "persistent fault drains to a healthy peer" (fun () ->
        let sched = Scheduler.create ~devices:2 () in
        let d0 = Scheduler.device sched 0 in
        let bs = saxpy_bitstream 8 in
        let ctx =
          Executor.create_context ~faults:persistent_plan ~sched ~device:d0 bs
        in
        Executor.api_launch ctx ~kernel:"saxpy_hw" (stage_saxpy ctx 8);
        let r = Executor.result_of_context ctx in
        check Alcotest.bool "drained" true r.Executor.drained;
        check Alcotest.bool "not degraded" false r.Executor.degraded;
        check Alcotest.int "finished on the peer" 1 r.Executor.device;
        check Alcotest.bool "bad device failed" true d0.Scheduler.dev_failed;
        (* the re-staging DMA is charged honestly and traced *)
        check Alcotest.bool "drain transfer traced" true
          (List.exists
             (function
               | Trace.Transfer { name; _ } -> contains name "drain:"
               | _ -> false)
             (Trace.events r.Executor.trace));
        (* results are still correct numbers *)
        match
          Data_env.lookup r.Executor.data
            (Data_env.key ~name:"y" ~memory_space:1)
        with
        | None -> Alcotest.fail "y not on device"
        | Some buf ->
          let x, y = Ftn_linpack.References.saxpy_inputs ~n:8 in
          Ftn_linpack.References.saxpy ~a:2.0 ~x ~y;
          Array.iteri
            (fun i v ->
              if Float.abs (v -. y.(i)) > 1e-6 then
                Alcotest.failf "y(%d) = %f, want %f" i v y.(i))
            (Rtval.float_buffer buf));
    tc "single device with drain enabled still falls back to cpu" (fun () ->
        let ctx =
          Executor.create_context ~faults:persistent_plan (saxpy_bitstream 8)
        in
        Executor.api_launch ctx ~kernel:"saxpy_hw" (stage_saxpy ctx 8);
        let r = Executor.result_of_context ctx in
        check Alcotest.bool "degraded" true r.Executor.degraded;
        check Alcotest.bool "not drained" false r.Executor.drained;
        check Alcotest.int "cpu fallbacks" 1 r.Executor.cpu_fallbacks);
    tc "a drained run counts its bytes and keeps its flight in time order"
      (fun () ->
        (* SGESL n=16 on two devices: a hung first launch that one retry
           absorbs, then a persistent fault on the second launch that
           drains the run to device 1 *)
        let art =
          Core.Compiler.compile (Ftn_linpack.Fortran_sources.sgesl ~n:16)
        in
        let bitstream = Core.Compiler.synthesise art in
        let faults =
          match Fault.parse_plan "timeout:nth=1,launch:nth=2:persistent" with
          | Ok p -> p
          | Error m -> Fmt.failwith "bad plan: %s" m
        in
        let module Flight = Ftn_obs.Flight in
        let saved = Flight.capacity () in
        Flight.set_capacity 100_000;
        Flight.clear ();
        Fun.protect
          ~finally:(fun () -> Flight.set_capacity saved)
          (fun () ->
            let bytes () =
              Ftn_obs.Metrics.counter_value "device.bytes_h2d"
              + Ftn_obs.Metrics.counter_value "device.bytes_d2h"
            in
            let bytes0 = bytes () and dropped0 = Flight.dropped () in
            let r =
              Executor.run ~faults ~sched:(Scheduler.create ~devices:2 ())
                ~host:art.Core.Compiler.host ~bitstream ()
            in
            check Alcotest.bool "drained" true r.Executor.drained;
            check Alcotest.int "h2d + d2h bytes are the bytes moved"
              r.Executor.bytes_transferred (bytes () - bytes0);
            let entries = Flight.entries () in
            check Alcotest.int "no entry dropped" dropped0 (Flight.dropped ());
            ignore
              (List.fold_left
                 (fun prev (e : Flight.entry) ->
                   if e.Flight.time_s < prev then
                     Alcotest.failf "#%d %s at %h precedes the one before (%h)"
                       e.Flight.seq e.Flight.cat e.Flight.time_s prev;
                   e.Flight.time_s)
                 neg_infinity entries)));
  ]

(* --- queue wait on the owning device's timeline --- *)

let queue_wait_tests =
  [
    tc "two-job queue: second waits exactly kernel+overhead" (fun () ->
        let n = 16 in
        let ctx = Executor.create_context (saxpy_bitstream n) in
        let args = stage_saxpy ctx n in
        let e1 = Executor.api_launch_async ctx ~kernel:"saxpy_hw" args in
        let e2 = Executor.api_launch_async ctx ~kernel:"saxpy_hw" args in
        Executor.wait_event ctx e1;
        Executor.wait_event ctx e2;
        let launches =
          List.filter_map
            (function
              | Trace.Launch { kernel_time_s; overhead_s; queue_wait_s; _ } ->
                Some (kernel_time_s, overhead_s, queue_wait_s)
              | _ -> None)
            (Trace.events (Executor.result_of_context ctx).Executor.trace)
        in
        match launches with
        | [ (k1, o1, w1); (_, _, w2) ] ->
          check (Alcotest.float 0.0) "first launch never queued" 0.0 w1;
          check (Alcotest.float 1e-15) "second queued behind the first"
            (k1 +. o1) w2
        | l -> Alcotest.failf "expected 2 launches, got %d" (List.length l));
    tc "queue wait counts a peer context occupying the device" (fun () ->
        let sched = Scheduler.create () in
        let d = Scheduler.device sched 0 in
        let bs = saxpy_bitstream 16 in
        let a = Executor.create_context ~sched ~device:d bs in
        let b = Executor.create_context ~sched ~device:d bs in
        (* b is staged and ready before a's kernel even starts, so b's
           launch must queue behind a's in-flight kernel chain *)
        let args_b = stage_saxpy b 16 in
        let ea = Executor.api_launch_async a ~kernel:"saxpy_hw" (stage_saxpy a 16) in
        Executor.api_launch b ~kernel:"saxpy_hw" args_b;
        let launches =
          List.filter_map
            (function
              | Trace.Launch { queue_wait_s; _ } -> Some queue_wait_s
              | _ -> None)
            (Trace.events (Executor.result_of_context b).Executor.trace)
        in
        (match launches with
        | [ w ] -> check Alcotest.bool "positive queue wait" true (w > 0.0)
        | l -> Alcotest.failf "expected 1 launch, got %d" (List.length l));
        Executor.wait_event a ea);
    tc "transfers overlap a peer's compute on the duplex DMA lanes"
      (fun () ->
        let sched = Scheduler.create () in
        let d = Scheduler.device sched 0 in
        let bs = saxpy_bitstream 64 in
        let a = Executor.create_context ~sched ~device:d bs in
        let ea = Executor.api_launch_async a ~kernel:"saxpy_hw" (stage_saxpy a 64) in
        let compute_busy_until = Scheduler.lane_avail_s d Event.Compute in
        (* a second context stages its data while a's kernel runs: the
           Copy_in lane frees well before the compute lane, so b's first
           h2d starts inside a's kernel window *)
        let b = Executor.create_context ~sched ~device:d bs in
        let copy_in_before = Scheduler.lane_avail_s d Event.Copy_in in
        ignore (stage_saxpy b 64);
        let copy_in_after = Scheduler.lane_avail_s d Event.Copy_in in
        check Alcotest.bool "DMA lane free while compute busy" true
          (copy_in_before < compute_busy_until);
        check Alcotest.bool "staging ran on the DMA lane" true
          (copy_in_after > copy_in_before);
        Executor.wait_event a ea);
    tc "same-context d2h waits for the in-flight kernel" (fun () ->
        let n = 16 in
        let ctx = Executor.create_context (saxpy_bitstream n) in
        let x, y = Ftn_linpack.References.saxpy_inputs ~n in
        let hy = Rtval.of_float_array Types.F32 y in
        ignore x;
        let args = stage_saxpy ctx n in
        let ev = Executor.api_launch_async ctx ~kernel:"saxpy_hw" args in
        (match args with
        | [ _; Rtval.Buf dy; _ ] ->
          Executor.api_transfer ctx ~src:dy ~dst:hy
        | _ -> Alcotest.fail "unexpected args");
        let d = Executor.context_device ctx in
        check Alcotest.bool "d2h starts after the kernel retires" true
          (Scheduler.lane_avail_s d Event.Copy_out >= ev.Event.ev_finish_s);
        Executor.wait_event ctx ev);
  ]

(* --- the job queue --- *)

let compiled_saxpy =
  lazy
    (let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:8) in
     (art.Core.Compiler.host, Core.Compiler.synthesise art))

let compiled_sgesl =
  lazy
    (let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.sgesl ~n:8) in
     (art.Core.Compiler.host, Core.Compiler.synthesise art))

let mk_job ?deps ?tenant ~name which =
  let host, bs = Lazy.force (if which = 0 then compiled_saxpy else compiled_sgesl) in
  Jobs.job ?tenant ?deps ~name (fun ?faults ~sched ~device ~start_s () ->
      Executor.run ?faults ~sched ~device ~start_s ~host ~bitstream:bs ())

let jobs_tests =
  [
    tc "round-robin interleaves tenants" (fun () ->
        let specs =
          List.init 4 (fun i -> mk_job ~tenant:"a" ~name:(Fmt.str "a%d" i) 0)
          @ List.init 4 (fun i -> mk_job ~tenant:"b" ~name:(Fmt.str "b%d" i) 0)
        in
        let stats = Jobs.run specs in
        check Alcotest.int "all run" 8 stats.Jobs.jobs_run;
        let finish name =
          (List.assoc name stats.Jobs.results).Executor.finish_s
        in
        (* one device: pickup order = finish order; b0 must not starve
           behind all of tenant a's queue *)
        check Alcotest.bool "b0 before a1" true (finish "b0" < finish "a1");
        check Alcotest.bool "b1 before a2" true (finish "b1" < finish "a2"));
    tc "outputs concatenate in submission order" (fun () ->
        let specs =
          [ mk_job ~name:"s" 0; mk_job ~name:"g" 1; mk_job ~name:"s2" 0 ]
        in
        let stats = Jobs.run ~config:{ Jobs.default_config with devices = 2 } specs in
        let outs =
          List.map (fun (_, r) -> r.Executor.output) stats.Jobs.results
        in
        check Alcotest.string "concatenation" (String.concat "" outs)
          stats.Jobs.output);
    tc "dependencies gate arrival; cycles are dropped not deadlocked"
      (fun () ->
        let specs =
          [
            mk_job ~name:"root" 0;
            mk_job ~deps:[ "root" ] ~name:"child" 0;
            mk_job ~deps:[ "dead2" ] ~name:"dead1" 0;
            mk_job ~deps:[ "dead1" ] ~name:"dead2" 0;
          ]
        in
        let stats = Jobs.run specs in
        check Alcotest.int "two run" 2 stats.Jobs.jobs_run;
        check Alcotest.int "cycle dropped" 2 stats.Jobs.jobs_dropped;
        let root = List.assoc "root" stats.Jobs.results in
        let child = List.assoc "child" stats.Jobs.results in
        check Alcotest.bool "child after root" true
          (child.Executor.finish_s >= root.Executor.finish_s));
    tc "queue_depth must be positive" (fun () ->
        try
          ignore
            (Jobs.run
               ~config:{ Jobs.default_config with queue_depth = 0 }
               [ mk_job ~name:"x" 0 ]);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    tc "multi-device run spreads jobs and shortens the makespan" (fun () ->
        let specs n = List.init n (fun i -> mk_job ~name:(Fmt.str "j%d" i) 0) in
        let s1 = Jobs.run ~config:{ Jobs.default_config with devices = 1 } (specs 8) in
        let s4 = Jobs.run ~config:{ Jobs.default_config with devices = 4 } (specs 8) in
        check Alcotest.bool "faster" true
          (s4.Jobs.elapsed_s < s1.Jobs.elapsed_s);
        check Alcotest.string "identical output" s1.Jobs.output s4.Jobs.output;
        let snap = Scheduler.snapshot s4.Jobs.scheduler in
        check Alcotest.int "4 devices" 4 (List.length snap);
        List.iter
          (fun ds ->
            check Alcotest.int "2 jobs each" 2 ds.Scheduler.ds_jobs)
          snap);
    tc "fault device completes all jobs by draining" (fun () ->
        let specs = List.init 6 (fun i -> mk_job ~name:(Fmt.str "j%d" i) 0) in
        let stats =
          Jobs.run
            ~config:
              {
                Jobs.default_config with
                Jobs.devices = 3;
                queue_depth = 8;
                fault_device = Some (1, persistent_plan);
              }
            specs
        in
        check Alcotest.int "all jobs run" 6 stats.Jobs.jobs_run;
        check Alcotest.int "none dropped" 0 stats.Jobs.jobs_dropped;
        check Alcotest.bool "at least one drained" true
          (stats.Jobs.drained_jobs >= 1);
        check Alcotest.int "none degraded" 0 stats.Jobs.degraded_jobs);
    tc "the devices' launches add up to the jobs', a drain included"
      (fun () ->
        let specs =
          List.init 6 (fun i -> mk_job ~name:(Fmt.str "j%d" i) (i mod 2))
        in
        let stats =
          Jobs.run
            ~config:
              {
                Jobs.default_config with
                Jobs.devices = 2;
                fault_device = Some (1, persistent_plan);
              }
            specs
        in
        check Alcotest.bool "a job drained" true (stats.Jobs.drained_jobs >= 1);
        check Alcotest.int "launches"
          (List.fold_left
             (fun acc (_, r) -> acc + r.Executor.kernel_launches)
             0 stats.Jobs.results)
          (List.fold_left
             (fun acc ds -> acc + ds.Scheduler.ds_launches)
             0
             (Scheduler.snapshot stats.Jobs.scheduler)));
  ]

(* --- determinism property: any DAG, 1 vs N devices --- *)

let props =
  let build_specs (n, seed) =
    let rng = Random.State.make [| seed |] in
    List.init n (fun i ->
        let deps =
          List.filteri
            (fun j _ -> j < i && Random.State.int rng 4 = 0)
            (List.init n (fun j -> j))
          |> List.map (Fmt.str "j%d")
        in
        mk_job ~deps
          ~tenant:(Fmt.str "t%d" (i mod 3))
          ~name:(Fmt.str "j%d" i)
          (Random.State.int rng 2))
  in
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:12
        ~name:
          "any job DAG: 1 vs 3 devices gives identical output and identical \
           kernel/transfer sim-time"
        (QCheck.make
           QCheck.Gen.(pair (int_range 1 8) (int_bound 10_000))
           ~print:(fun (n, seed) -> Fmt.str "n=%d seed=%d" n seed))
        (fun case ->
          let run devices =
            Jobs.run
              ~config:
                { Jobs.default_config with Jobs.devices; queue_depth = 4 }
              (build_specs case)
          in
          let s1 = run 1 and s3 = run 3 in
          if s1.Jobs.jobs_dropped <> 0 || s3.Jobs.jobs_dropped <> 0 then
            QCheck.Test.fail_reportf "jobs dropped";
          if not (String.equal s1.Jobs.output s3.Jobs.output) then
            QCheck.Test.fail_reportf "outputs differ";
          if not (Float.equal s1.Jobs.total_kernel_s s3.Jobs.total_kernel_s)
          then
            QCheck.Test.fail_reportf "kernel sim-time differs: %.17g vs %.17g"
              s1.Jobs.total_kernel_s s3.Jobs.total_kernel_s;
          if
            not
              (Float.equal s1.Jobs.total_transfer_s s3.Jobs.total_transfer_s)
          then
            QCheck.Test.fail_reportf
              "transfer sim-time differs: %.17g vs %.17g"
              s1.Jobs.total_transfer_s s3.Jobs.total_transfer_s;
          true);
    ]

let () =
  Alcotest.run "sched"
    [
      ("scheduler", scheduler_tests);
      ("kernel-wait", kernel_wait_tests);
      ("faults", fault_tests);
      ("queue-wait", queue_wait_tests);
      ("jobs", jobs_tests);
      ("props", props);
    ]
