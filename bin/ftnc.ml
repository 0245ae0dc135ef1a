(* ftnc: command-line driver for the Fortran -> OpenMP accelerator
   offload pipeline. Mirrors the paper's toolchain: compile
   Fortran+OpenMP, dump any intermediate stage, synthesise the (simulated)
   device binary and run the program on the selected simulated
   accelerator (--backend vitis | rv).

     ftnc compile prog.f90 --emit hls
     ftnc run prog.f90 --report --backend rv
     ftnc synth prog.f90
     ftnc stages prog.f90
     ftnc --list-backends *)

open Cmdliner

let read_source path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Caret rendering reads the offending line back from the file named in
   the diagnostic's location. *)
let disk_source : Ftn_diag.Diag.source_lookup =
 fun name ->
  if name <> "" && Sys.file_exists name then Some (read_source name) else None

let handle_errors f =
  try
    let r = f () in
    (* Warnings accumulated during a successful run (e.g. non-converging
       rewrites) render with the same caret format. *)
    (match Ftn_diag.Diag_engine.warnings Ftn_diag.Diag_engine.default with
    | [] -> ()
    | ws -> Fmt.epr "%s@." (Ftn_diag.Diag.render_all ~source:disk_source ws));
    r
  with
  | Ftn_diag.Diag.Diag_failure diags ->
    Fmt.epr "%s@." (Ftn_diag.Diag.render_all ~source:disk_source diags);
    let errors = List.filter Ftn_diag.Diag.is_error diags in
    if List.length errors > 1 then
      Fmt.epr "%d errors generated.@." (List.length errors);
    exit 1
  | Ftn_hlsim.Synth.Synthesis_error msg ->
    Fmt.epr "synthesis error: %s@." msg;
    exit 1
  | Ftn_hlsim.Bitstream_io.Backend_mismatch { expected; found; format } ->
    Fmt.epr
      "error: device binary belongs to backend '%s' but '%s' is selected \
       (container %s)@.note: rebuild with --backend %s or load it with the \
       matching backend@."
      found expected format found;
    exit 1
  | Ftn_fault.Fault.Error (e, loc) ->
    (* Structured runtime errors render like compile-time diagnostics,
       caret and all, pointing at the launching op's source line. *)
    Fmt.epr "%s@."
      (Ftn_diag.Diag.render ~source:disk_source
         (Ftn_diag.Diag.error ~loc
            (Fmt.str "[%s] %s%s"
               (Ftn_fault.Fault.error_code e)
               (Ftn_fault.Fault.message e)
               (Ftn_fault.Fault.flight_note ()))));
    exit 1
  | Ftn_passes.Core_to_llvm.Unsupported msg ->
    Fmt.epr
      "error: the offloaded region uses a construct the device backend \
       cannot lower (%s)@."
      msg;
    exit 1
  | Failure msg ->
    Fmt.epr "error: %s@." msg;
    exit 1
  | Sys_error msg ->
    Fmt.epr "error: %s@." msg;
    exit 1
  | e ->
    (* never leak a raw backtrace to the user *)
    Fmt.epr "internal error: %s@." (Printexc.to_string e);
    exit 1

(* --- observability options, shared by every command --- *)

type obs_opts = {
  trace_out : string option;
  metrics : bool;
  metrics_format : [ `Text | `Json | `Openmetrics ] option;
      (* an explicit --metrics-format implies printing the registry *)
  profile : bool;
  flight_size : int option;
  log_level : Ftn_obs.Log.level option;
  max_errors : int;
  interp_engine : Ftn_interp.Interp.engine option;
}

let obs_term =
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file (loadable in Perfetto or \
             chrome://tracing) covering compile-stage spans, kernel \
             executions and DMA transfers.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry (counters, gauges, histograms).")
  in
  let metrics_format_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("text", `Text); ("json", `Json);
                  ("openmetrics", `Openmetrics) ]))
          None
      & info [ "metrics-format" ] ~docv:"FORMAT"
          ~doc:
            "Metrics output format: $(b,text) (the default), $(b,json) or \
             $(b,openmetrics) (Prometheus exposition text). Giving this \
             flag implies $(b,--metrics).")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Enable the profiler and print a report: hot interpreter ops, \
             hottest rewrite patterns, per-pass wall/alloc deltas, \
             per-kernel launch-latency quantiles, compute-unit occupancy \
             and a device-utilization timeline.")
  in
  let flight_size_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "flight-size" ] ~docv:"N"
          ~doc:
            "Capacity of the flight recorder (the ring buffer of recent \
             device events dumped when a fault escapes; default 256).")
  in
  let log_level_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Log verbosity: debug, info, warn or error.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Shorthand for --log-level debug.")
  in
  let max_errors_arg =
    Arg.(
      value & opt int 20
      & info [ "max-errors" ] ~docv:"N"
          ~doc:
            "Stop after reporting $(docv) errors (semantic analysis keeps \
             going past the first error up to this limit).")
  in
  let interp_engine_arg =
    Arg.(
      value
      & opt (some (enum [ ("tree", `Tree); ("compiled", `Compiled) ])) None
      & info [ "interp-engine" ] ~docv:"ENGINE"
          ~doc:
            "Interpreter execution engine: $(b,compiled) (the default; \
             functions are compiled to closures once and reused) or \
             $(b,tree) (the reference tree-walker).")
  in
  let make trace_out metrics metrics_format profile flight_size log_level
      verbose max_errors interp_engine =
    let log_level =
      match (log_level, verbose) with
      | Some s, _ -> (
        match Ftn_obs.Log.level_of_string s with
        | Some l -> Some l
        | None ->
          Fmt.epr "error: unknown log level %S@." s;
          exit 1)
      | None, true -> Some Ftn_obs.Log.Debug
      | None, false -> None
    in
    (match flight_size with
    | Some n when n < 1 ->
      Fmt.epr "error: --flight-size must be at least 1@.";
      exit 1
    | _ -> ());
    {
      trace_out;
      metrics;
      metrics_format;
      profile;
      flight_size;
      log_level;
      max_errors;
      interp_engine;
    }
  in
  Term.(
    const make $ trace_out_arg $ metrics_arg $ metrics_format_arg
    $ profile_arg $ flight_size_arg $ log_level_arg $ verbose_arg
    $ max_errors_arg $ interp_engine_arg)

(* Run [f] with logging configured, then emit the requested trace and
   metrics dumps from the ambient span collector and default registry. *)
let with_obs opts f =
  (match opts.log_level with
  | Some l -> Ftn_obs.Log.set_level l
  | None -> ());
  Ftn_diag.Diag_engine.set_max_errors Ftn_diag.Diag_engine.default
    opts.max_errors;
  (match opts.interp_engine with
  | Some e -> Ftn_interp.Interp.set_default_engine e
  | None -> ());
  if opts.profile then Ftn_obs.Profile.set_enabled true;
  (match opts.flight_size with
  | Some n -> Ftn_obs.Flight.set_capacity n
  | None -> ());
  let r = f () in
  (match opts.trace_out with
  | Some path ->
    Ftn_obs.Chrome_trace.write_file ~metrics:Ftn_obs.Metrics.default
      (Ftn_obs.Span.current ()) path;
    Fmt.epr "wrote trace to %s@." path
  | None -> ());
  if opts.metrics || opts.metrics_format <> None then begin
    match Option.value ~default:`Text opts.metrics_format with
    | `Text -> Fmt.pr "%a@." Ftn_obs.Metrics.pp Ftn_obs.Metrics.default
    | `Json ->
      Fmt.pr "%s@." (Ftn_obs.Json.to_string (Ftn_obs.Metrics.to_json ()))
    | `Openmetrics -> print_string (Ftn_obs.Openmetrics.render ())
  end;
  r

(* --- backend selection, shared by every command --- *)

let backend_term =
  let backend_arg =
    Arg.(
      value & opt string "vitis"
      & info [ "backend" ] ~docv:"NAME"
          ~doc:
            "Accelerator backend to compile for: $(b,vitis) (the paper's \
             Vitis HLS / Alveo U280 flow, the default) or $(b,rv) (a \
             RISC-V accelerator cluster). See $(b,--list-backends).")
  in
  let make name =
    (* unknown names error through the diagnostic engine with a
       did-you-mean note; rendering happens in handle_errors *)
    handle_errors (fun () ->
        Ftn_backend.Backend_registry.find_exn
          ~diag:Ftn_diag.Diag_engine.default name)
  in
  Term.(const make $ backend_arg)

let options_for backend =
  {
    Core.Options.default with
    Core.Options.backend;
    xclbin_name = Ftn_backend.Backend.default_binary backend;
  }

(* --- arguments --- *)

let source_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SOURCE" ~doc:"Fortran source file (free form).")

let emit_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("fir", `Fir); ("core", `Core); ("host", `Host);
             ("device", `Device); ("hls", `Hls); ("llvm-dialect", `Llvm_dialect);
             ("llvm", `Llvm); ("llvm7", `Llvm7); ("cpp", `Cpp) ])
        `Hls
    & info [ "emit" ] ~docv:"STAGE"
        ~doc:
          "Which artifact to print: fir, core, host, device, hls, \
           llvm-dialect, llvm, llvm7 or cpp.")

let report_arg =
  Arg.(value & flag & info [ "report" ] ~doc:"Print the full run report.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the device event trace.")

let cpu_arg =
  Arg.(
    value & flag
    & info [ "cpu" ] ~doc:"Execute with sequential OpenMP on the host only.")

(* --- fault-injection options for the run command --- *)

let fault_term =
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Inject deterministic device faults. $(docv) is a \
             comma-separated rule list; each rule is \
             $(i,kind)[@kernel][:nth=N|:p=P][:transient|:persistent] with \
             kind one of $(b,alloc), $(b,transfer), $(b,launch) or \
             $(b,timeout); e.g. \
             $(b,transfer:nth=2,timeout@saxpy_hw:persistent).")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed for probabilistic fault triggers (p=...).")
  in
  let retries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-retries" ] ~docv:"N"
          ~doc:
            "Retry budget per faulted operation (total attempts including \
             the first; default 4).")
  in
  let make plan seed retries =
    let fault_plan =
      match plan with
      | None -> None
      | Some s -> (
        match Ftn_fault.Fault.parse_plan ?seed s with
        | Ok p -> Some p
        | Error msg ->
          Fmt.epr "error: invalid --fault-plan: %s@." msg;
          exit 1)
    in
    let retry =
      match retries with
      | None -> Ftn_fault.Fault.default_retry
      | Some n ->
        if n < 1 then begin
          Fmt.epr "error: --fault-retries must be at least 1@.";
          exit 1
        end;
        { Ftn_fault.Fault.default_retry with Ftn_fault.Fault.max_attempts = n }
    in
    (fault_plan, retry)
  in
  Term.(const make $ plan_arg $ seed_arg $ retries_arg)

(* --- scheduler options for the run command --- *)

let sched_term =
  let devices_arg =
    Arg.(
      value & opt int 1
      & info [ "devices" ] ~docv:"N"
          ~doc:
            "Simulate $(docv) accelerator devices behind one scheduler \
             (default 1). Job placement is least-loaded-first; output is \
             byte-identical whatever the device count.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"K"
          ~doc:
            "Submit $(docv) concurrent copies of the program through the \
             job queue (default 1 = plain single run), spread round-robin \
             over 4 tenants; prints queue throughput and p50/p99 latency \
             with $(b,--report).")
  in
  let fault_device_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-device" ] ~docv:"D"
          ~doc:
            "Apply $(b,--fault-plan) only to jobs placed on device \
             $(docv), modelling one persistently bad board; with multiple \
             devices its queue drains to healthy peers.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Shed any queued job whose admission wait would exceed \
             $(docv) of simulated time instead of running it; shed jobs \
             are charged only their wait and reported in the scheduler \
             summary.")
  in
  let tenant_quota_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tenant-quota" ] ~docv:"K"
          ~doc:
            "Cap each tenant at $(docv) in-flight jobs; at the cap a \
             tenant's next admission waits for its own oldest completion, \
             whatever the device backlog.")
  in
  let breaker_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "breaker" ] ~docv:"SPEC"
          ~doc:
            "Enable per-device circuit breakers: $(b,on) for the \
             defaults, or $(b,trip=N,cooldown=S,flap=N) to override. A \
             device with N consecutive bad jobs stops taking work for \
             the cooldown, re-admits one probe, and is quarantined after \
             flapping too often.")
  in
  let shed_watermark_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shed-watermark" ] ~docv:"W"
          ~doc:
            "Shed the lowest-priority, furthest-past-deadline queued \
             jobs whenever more than $(docv) are waiting, keeping tail \
             latency bounded under overload.")
  in
  let make devices jobs fault_device deadline tenant_quota breaker
      shed_watermark =
    if devices < 1 then begin
      Fmt.epr "error: --devices must be at least 1@.";
      exit 1
    end;
    if jobs < 1 then begin
      Fmt.epr "error: --jobs must be at least 1@.";
      exit 1
    end;
    (match fault_device with
    | Some d when d < 0 || d >= devices ->
      Fmt.epr "error: --fault-device %d is outside 0..%d@." d (devices - 1);
      exit 1
    | _ -> ());
    (match deadline with
    | Some d when d <= 0.0 ->
      Fmt.epr "error: --deadline must be positive@.";
      exit 1
    | _ -> ());
    (match tenant_quota with
    | Some q when q < 1 ->
      Fmt.epr "error: --tenant-quota must be at least 1@.";
      exit 1
    | _ -> ());
    (match shed_watermark with
    | Some w when w < 1 ->
      Fmt.epr "error: --shed-watermark must be at least 1@.";
      exit 1
    | _ -> ());
    let breaker =
      match breaker with
      | None -> None
      | Some spec -> (
        match Ftn_runtime.Breaker.parse_config spec with
        | Ok cfg -> Some cfg
        | Error msg ->
          Fmt.epr "error: --breaker: %s@." msg;
          exit 1)
    in
    (devices, jobs, fault_device, deadline, tenant_quota, breaker,
     shed_watermark)
  in
  Term.(
    const make $ devices_arg $ jobs_arg $ fault_device_arg $ deadline_arg
    $ tenant_quota_arg $ breaker_arg $ shed_watermark_arg)

(* --- commands --- *)

let compile_cmd =
  let run source emit backend obs =
    handle_errors (fun () ->
        with_obs obs @@ fun () ->
        let artifacts =
          Core.Compiler.compile ~options:(options_for backend)
            ~file:source
            ~engine:Ftn_diag.Diag_engine.default (read_source source) in
        let print_module name m_opt =
          match m_opt with
          | Some m -> print_endline (Ftn_ir.Printer.to_string m)
          | None ->
            Fmt.epr "no %s artifact (program has no omp target region)@." name;
            exit 1
        in
        match emit with
        | `Fir -> print_endline (Ftn_ir.Printer.to_string artifacts.Core.Compiler.fir_module)
        | `Core -> print_endline (Ftn_ir.Printer.to_string artifacts.Core.Compiler.core_module)
        | `Host -> print_endline (Ftn_ir.Printer.to_string artifacts.Core.Compiler.host)
        | `Device -> print_module "device" artifacts.Core.Compiler.device_core
        | `Hls -> print_module "hls" artifacts.Core.Compiler.device_hls
        | `Llvm_dialect -> print_module "llvm dialect" artifacts.Core.Compiler.device_llvm
        | `Llvm -> (
          match artifacts.Core.Compiler.llvm_ir with
          | Some t -> print_string t
          | None -> exit 1)
        | `Llvm7 -> (
          match artifacts.Core.Compiler.llvm_ir_downgraded with
          | Some t -> print_string t
          | None -> exit 1)
        | `Cpp -> (
          match artifacts.Core.Compiler.host_cpp with
          | Some t -> print_string t
          | None -> exit 1))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile and print an intermediate artifact.")
    Term.(
      const run $ source_arg $ emit_arg $ backend_term $ obs_term)

let stages_cmd =
  let run source backend obs =
    handle_errors (fun () ->
        with_obs obs @@ fun () ->
        let artifacts =
          Core.Compiler.compile ~options:(options_for backend)
            ~file:source
            ~engine:Ftn_diag.Diag_engine.default (read_source source) in
        List.iter
          (fun s -> Fmt.pr "%a@." Ftn_ir.Pass.pp_stage s)
          artifacts.Core.Compiler.stages)
  in
  Cmd.v
    (Cmd.info "stages" ~doc:"Show per-pass timing and op counts.")
    Term.(const run $ source_arg $ backend_term $ obs_term)

let synth_cmd =
  let run source output backend obs =
    handle_errors (fun () ->
        with_obs obs @@ fun () ->
        let options = options_for backend in
        let artifacts = Core.Compiler.compile ~options ~file:source
            ~engine:Ftn_diag.Diag_engine.default (read_source source) in
        let bs = Core.Compiler.synthesise ~options artifacts in
        List.iter print_endline bs.Ftn_hlsim.Bitstream.build_log;
        match output with
        | Some path ->
          Ftn_backend.Backend.save_bitstream_file backend bs path;
          Fmt.pr "wrote %s@." path
        | None -> ())
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the simulated device binary to FILE.")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Run the selected backend's synthesis flow.")
    Term.(
      const run $ source_arg $ output_arg $ backend_term $ obs_term)

let run_term =
  let run source report trace cpu xclbin backend (fault_plan, retry)
      (devices, jobs, fault_device, deadline_s, tenant_quota, breaker,
       shed_watermark) obs =
    handle_errors (fun () ->
        with_obs obs @@ fun () ->
        let options =
          { (options_for backend) with
            Core.Options.fault_plan; retry; devices; jobs; deadline_s;
            tenant_quota; breaker; shed_watermark }
        in
        let src = read_source source in
        if cpu then begin
          let out, steps =
            Core.Run.run_cpu ~file:source
              ~engine:Ftn_diag.Diag_engine.default src
          in
          print_string out;
          Fmt.pr "(cpu mode, %d interpreter steps)@." steps
        end
        else if jobs > 1 then begin
          if xclbin <> None then begin
            Fmt.epr "error: --jobs cannot be combined with --xclbin@.";
            exit 1
          end;
          let _artifacts, _bitstream, stats =
            Core.Run.run_jobs ~options ~file:source
              ~engine:Ftn_diag.Diag_engine.default ?fault_device src
          in
          if obs.trace_out <> None then
            List.iter
              (fun (_, r) -> Ftn_runtime.(Trace.replay_spans r.Executor.trace))
              stats.Ftn_runtime.Jobs.results;
          print_string stats.Ftn_runtime.Jobs.output;
          if report then print_string (Core.Report.sched_summary stats)
        end
        else begin
          let r =
            match xclbin with
            | Some path ->
              (* execute the host program against a prebuilt bitstream *)
              let artifacts =
                Core.Compiler.compile ~options ~file:source
                  ~engine:Ftn_diag.Diag_engine.default src
              in
              let bitstream =
                Ftn_backend.Backend.load_bitstream_file backend path
              in
              let exec =
                Ftn_runtime.Executor.run ?faults:fault_plan ~retry
                  ~host:artifacts.Core.Compiler.host ~bitstream ()
              in
              { Core.Run.artifacts; bitstream; exec }
            | None ->
              Core.Run.run ~options ~file:source
                ~engine:Ftn_diag.Diag_engine.default src
          in
          if obs.trace_out <> None then
            Ftn_runtime.Trace.replay_spans r.Core.Run.exec.trace;
          print_string (Core.Run.output r);
          if report then print_string (Core.Report.summary r);
          if obs.profile then print_string (Core.Report.profile_summary r);
          if trace then
            Fmt.pr "%a@." Ftn_runtime.Trace.pp
              r.Core.Run.exec.Ftn_runtime.Executor.trace
        end)
  in
  let xclbin_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "xclbin" ] ~docv:"FILE"
          ~doc:"Program the device from a saved simulated device binary \
                (xclbin / rvbin, matching the selected backend) instead of \
                synthesising.")
  in
  Term.(
    const run $ source_arg $ report_arg $ trace_arg $ cpu_arg $ xclbin_arg
    $ backend_term $ fault_term $ sched_term $ obs_term)

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile, synthesise and execute on the selected simulated \
             accelerator.")
    run_term

let dse_cmd =
  let run source budget backend obs =
    handle_errors (fun () ->
        with_obs obs @@ fun () ->
        let spec =
          match Ftn_backend.Backend.fpga_spec backend with
          | Some spec -> spec
          | None ->
            Fmt.epr
              "error: backend '%s' has no FPGA device spec; design-space \
               exploration needs an HLS backend@."
              (Ftn_backend.Backend.name backend);
            exit 1
        in
        let artifacts =
          Core.Compiler.compile ~options:(options_for backend)
            ~file:source
            ~engine:Ftn_diag.Diag_engine.default (read_source source) in
        match artifacts.Core.Compiler.device_hls with
        | None ->
          Fmt.epr "no offloaded region@.";
          exit 1
        | Some d ->
          List.iter
            (fun op ->
              if
                Ftn_dialects.Func_d.is_func op
                && Ftn_dialects.Func_d.has_body op
              then begin
                let ks = Ftn_hlsim.Schedule.analyse_kernel spec op in
                Fmt.pr "kernel %s:@." ks.Ftn_hlsim.Schedule.fn_name;
                match
                  Ftn_hlsim.Dse.explore_kernel ~spec ?lut_budget:budget ks
                with
                | Some r -> Fmt.pr "%a" Ftn_hlsim.Dse.pp r
                | None -> Fmt.pr "  (no pipelined loop)@."
              end)
            (Ftn_ir.Op.module_body d))
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "lut-budget" ] ~docv:"LUTS"
          ~doc:"Kernel LUT budget constraining the chosen unroll factor.")
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Explore the unroll design space of each kernel's pipelined loop.")
    Term.(
      const run $ source_arg $ budget_arg $ backend_term $ obs_term)

let backends_cmd =
  let run () =
    List.iter
      (fun b ->
        Fmt.pr "%-8s %-45s %s@."
          (Ftn_backend.Backend.name b)
          (Ftn_backend.Backend.device b)
          (String.concat ", "
             (List.map Ftn_backend.Backend.capability_name
                (Ftn_backend.Backend.capabilities b))))
      (Ftn_backend.Backend_registry.all ())
  in
  Cmd.v
    (Cmd.info "backends"
       ~doc:"List the registered backends (name, device, capabilities).")
    Term.(const run $ const ())

let main =
  (* [ftnc prog.f90 ...] with no subcommand behaves like [ftnc run]. *)
  Cmd.group
    ~default:run_term
    (Cmd.info "ftnc" ~version:"1.0.0"
       ~doc:
         "Fortran + OpenMP accelerator offload compiler (MLIR pipeline, \
          simulated Vitis/U280 and RISC-V backends).")
    [ compile_cmd; stages_cmd; synth_cmd; run_cmd; dse_cmd; backends_cmd ]

(* Cmdliner only uses the default term when no positional is present, so
   [ftnc prog.f90 ...] needs the implied "run" spliced in by hand; the
   conventional [--list-backends] spelling maps onto the backends
   subcommand the same way. *)
let argv =
  let argv = Sys.argv in
  let subcommands =
    [ "compile"; "stages"; "synth"; "run"; "dse"; "backends" ]
  in
  if Array.length argv > 1 && argv.(1) = "--list-backends" then
    [| argv.(0); "backends" |]
  else if
    Array.length argv > 1
    && (not (List.mem argv.(1) subcommands))
    && Sys.file_exists argv.(1)
  then
    Array.append [| argv.(0); "run" |] (Array.sub argv 1 (Array.length argv - 1))
  else argv

let () = exit (Cmd.eval ~argv main)
