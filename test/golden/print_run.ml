(* Prints every runtime record of a few small programs executed on the
   simulated device: program output, result counters, the run report's
   summary, compute-unit and device-timeline lines, flight-recorder
   entries, simulated spans (replayed from the trace), trace events, the
   data environment, diagnostics and the device/fault/data-environment
   metrics. Simulated
   times print as hex floats; nothing measured on the wall clock is
   printed.

   Each program runs under both interpreter engines, then a second time
   under the compiled engine on the same artifact, which reuses the
   artifact's runtime program. The executable exits non-zero when any
   two renderings differ, and otherwise prints one.

     print_run.exe *)

open Ftn_runtime
module Sources = Ftn_linpack.Fortran_sources
module Flight = Ftn_obs.Flight
module Metrics = Ftn_obs.Metrics
module Span = Ftn_obs.Span

(* name, source, fault plan, simulated devices *)
let cases =
  [
    ("sgesl_n16", Sources.sgesl ~n:16, None, 1);
    ("stencil_n32_s2", Sources.stencil ~n:32 ~steps:2, None, 1);
    ("data_regions_n8", Sources.data_regions ~n:8, None, 1);
    ("dot_product_n64_simd4", Sources.dot_product ~n:64 ~simdlen:4, None, 1);
    (* a transient transfer fault that one retry absorbs, then a
       persistent launch fault that degrades the kernel to the CPU *)
    ( "saxpy_n32_faulted",
      Sources.saxpy ~n:32,
      Some "transfer:nth=1,launch:nth=1:persistent",
      1 );
    (* a hung first launch that the watchdog times out and one retry
       absorbs, then a persistent fault on the second launch that drains
       the run to the second device *)
    ( "sgesl_n16_drained",
      Sources.sgesl ~n:16,
      Some "timeout:nth=1,launch:nth=2:persistent",
      2 );
  ]

let plan s =
  match Ftn_fault.Fault.parse_plan s with
  | Ok p -> p
  | Error msg -> failwith ("print_run: bad fault plan: " ^ msg)

let attrs kvs = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)

let event b (e : Trace.event) =
  let p fmt = Printf.bprintf b fmt in
  match e with
  | Trace.Alloc { name; bytes; device; start_s; time_s } ->
    p "alloc %s bytes=%d time=%h device=%d start=%h\n" name bytes time_s
      device start_s
  | Trace.Transfer { name; direction; bytes; device; start_s; time_s; drain }
    ->
    p "transfer %s %s bytes=%d time=%h device=%d start=%h%s\n" name
      (match direction with
      | Trace.Host_to_device -> "h2d"
      | Trace.Device_to_host -> "d2h")
      bytes time_s device start_s
      (match drain with
      | Some { Trace.kernel; from_device } ->
        Printf.sprintf " kernel=%s from=%d" kernel from_device
      | None -> "")
  | Trace.Launch
      { kernel; kernel_time_s; overhead_s; queue_wait_s; device; start_s } ->
    p "launch %s kernel=%h overhead=%h queue_wait=%h device=%d start=%h\n"
      kernel kernel_time_s overhead_s queue_wait_s device start_s
  | Trace.Fault { target; kind; attempt; device; start_s; time_s } ->
    p "fault %s %s attempt=%d time=%h device=%d start=%h\n" target kind
      attempt time_s device start_s
  | Trace.Retry { target; kind; attempt; device; start_s; time_s } ->
    p "retry %s attempt=%d time=%h device=%d start=%h kind=%s\n" target
      attempt time_s device start_s kind
  | Trace.Fallback { kernel; steps; device; start_s; time_s } ->
    p "fallback %s steps=%d time=%h device=%d start=%h\n" kernel steps time_s
      device start_s
  | Trace.Breaker { device; from_; to_; trips; time_s } ->
    p "breaker %d %s->%s trips=%d time=%h\n" device from_ to_ trips time_s
  | Trace.Shed { job; tenant; reason; wait_s; time_s } ->
    p "shed %s %s %s wait=%h time=%h\n" job tenant reason wait_s time_s

let recorded_metric name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "device."; "fault."; "data_env." ]
  || name = "interp.steps"

(* One run of [host] against [bitstream] on a fresh scheduler of
   [devices] devices, rendered. *)
let render ~engine ?faults ~devices host bitstream =
  let b = Buffer.create 65536 in
  let p fmt = Printf.bprintf b fmt in
  Flight.clear ();
  Metrics.reset ();
  let diag = Ftn_diag.Diag_engine.create () in
  let sched = Scheduler.create ~devices () in
  let r = Executor.run ~engine ~diag ?faults ~sched ~host ~bitstream () in
  p "-- output\n%s" r.Executor.output;
  p "-- result\n";
  p "device=%h kernel=%h transfer=%h overhead=%h fallback=%h finish=%h\n"
    r.Executor.device_time_s r.Executor.kernel_time_s
    r.Executor.transfer_time_s r.Executor.overhead_time_s
    r.Executor.fallback_time_s r.Executor.finish_s;
  p "launches=%d bytes=%d degraded=%b drained=%b retries=%d fallbacks=%d \
     faults=%d device=%d\n"
    r.Executor.kernel_launches r.Executor.bytes_transferred
    r.Executor.degraded r.Executor.drained r.Executor.retries
    r.Executor.cpu_fallbacks r.Executor.faults_injected r.Executor.device;
  p "-- report\n%s\n%s%s" (Fmt.str "%a" Core.Report.pp_exec r)
    (Fmt.str "%a" Core.Report.pp_compute_units r)
    (Fmt.str "%a" Core.Report.pp_device_timeline r);
  p "-- flight\n";
  List.iter
    (fun (e : Flight.entry) ->
      p "#%d %s %S time=%h loc=%S device=%d\n" e.Flight.seq e.Flight.cat
        e.Flight.msg e.Flight.time_s e.Flight.loc e.Flight.device)
    (Flight.entries ());
  p "-- spans\n";
  let spans = Span.create () in
  Trace.replay_spans ~collector:spans r.Executor.trace;
  List.iter
    (fun (sp : Span.span) ->
      if sp.Span.clock = Span.Sim then
        p "%s start=%h dur=%h %s\n" sp.Span.name sp.Span.start_s sp.Span.dur_s
          (attrs sp.Span.attrs))
    (Span.spans spans);
  p "-- trace\n";
  List.iter (event b) (Trace.events r.Executor.trace);
  p "-- data\n%s" (Data_env.snapshot r.Executor.data);
  p "-- diagnostics\n";
  List.iter
    (fun d -> p "%s\n" (Ftn_diag.Diag.render d))
    (Ftn_diag.Diag_engine.diagnostics diag);
  p "-- metrics\n";
  List.iter
    (fun (name, v) ->
      if recorded_metric name then
        match v with
        | Metrics.Counter_v n -> p "%s %d\n" name n
        | Metrics.Gauge_v x -> p "%s %h\n" name x
        | Metrics.Histogram_v { count; sum; _ } ->
          p "%s count=%d sum=%h\n" name count sum)
    (Metrics.snapshot ());
  Buffer.contents b

let () =
  (* room for every entry of the largest run *)
  Flight.set_capacity 100_000;
  let differ = ref false in
  List.iter
    (fun (name, src, faults, devices) ->
      let file = name ^ ".f90" in
      let art = Core.Compiler.compile ~file src in
      let bitstream = Core.Compiler.synthesise art in
      let host = art.Core.Compiler.host in
      let faults = Option.map plan faults in
      let tree = render ~engine:`Tree ?faults ~devices host bitstream in
      let compiled = render ~engine:`Compiled ?faults ~devices host bitstream in
      let warm = render ~engine:`Compiled ?faults ~devices host bitstream in
      if tree <> compiled then begin
        Printf.eprintf "print_run: %s differs between the engines\n" name;
        differ := true
      end;
      if warm <> compiled then begin
        Printf.eprintf "print_run: %s differs on a second run\n" name;
        differ := true
      end;
      Printf.printf "==== %s ====\n%s" name compiled)
    cases;
  if !differ then exit 1
