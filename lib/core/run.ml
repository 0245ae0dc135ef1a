(* Compile + synthesise + execute a Fortran program on the simulated FPGA,
   returning numerical results alongside the simulated measurements. *)

open Ftn_hlsim
open Ftn_runtime

type t = {
  artifacts : Compiler.artifacts;
  bitstream : Bitstream.t;
  exec : Executor.result;
}

let run ?(options = Options.default) ?(echo = false) ?file ?engine source =
  let artifacts = Compiler.compile ~options ?file ?engine source in
  let bitstream = Compiler.synthesise ~options artifacts in
  let sched =
    if options.Options.devices > 1 then
      Some (Scheduler.create ~devices:options.Options.devices ())
    else None
  in
  let exec =
    Executor.run ~echo ?diag:engine
      ?faults:options.Options.fault_plan ~retry:options.Options.retry
      ?sched ~host:artifacts.Compiler.host ~bitstream ()
  in
  { artifacts; bitstream; exec }

(* Submit [options.jobs] copies of the program through the job queue,
   spread round-robin over [tenants], on [options.devices] simulated
   devices. Compiles and synthesises once; every job interprets the same
   host module against the shared bitstream on its assigned device.
   [fault_device] pairs the options' fault plan with one device id,
   modelling a persistently bad board whose queue drains to peers; with
   no [fault_device] the plan (if any) applies to every job. *)
let run_jobs ?(options = Options.default) ?(echo = false) ?file ?engine
    ?fault_device ?(queue_depth = 8)
    ?(tenants = [ "t0"; "t1"; "t2"; "t3" ]) source =
  let artifacts = Compiler.compile ~options ?file ?engine source in
  let bitstream = Compiler.synthesise ~options artifacts in
  let tenant_arr = Array.of_list tenants in
  let n_tenants = max 1 (Array.length tenant_arr) in
  let specs =
    List.init (max 1 options.Options.jobs) (fun i ->
        Jobs.job
          ~tenant:tenant_arr.(i mod n_tenants)
          ~name:(Fmt.str "job%05d" i)
          (fun ?faults ~sched ~device ~start_s () ->
            let faults =
              match faults with
              | Some _ as f -> f
              | None ->
                if fault_device = None then options.Options.fault_plan
                else None
            in
            Executor.run ~echo ?diag:engine ?faults
              ~retry:options.Options.retry ~sched ~device ~start_s
              ~host:artifacts.Compiler.host ~bitstream ()))
  in
  let config =
    {
      Jobs.devices = max 1 options.Options.devices;
      queue_depth;
      fault_device =
        (match (fault_device, options.Options.fault_plan) with
        | Some d, Some p -> Some (d, p)
        | _ -> None);
      default_deadline_s = options.Options.deadline_s;
      tenant_quota = options.Options.tenant_quota;
      tenant_share = None;
      slo_s = None;
      breaker = options.Options.breaker;
      shed_watermark = options.Options.shed_watermark;
    }
  in
  (artifacts, bitstream, Jobs.run ~config ?diag:engine specs)

(* CPU reference execution: sequential OpenMP semantics, no device. *)
let run_cpu ?(echo = false) ?file ?engine source =
  let core = Ftn_frontend.Frontend.to_core ?file ?engine source in
  Executor.run_cpu ~echo core

(* Copy out a device buffer by its mapped identifier (memory space 1). *)
let device_floats run ~name =
  match
    Data_env.lookup run.exec.Executor.data (Data_env.key ~name ~memory_space:1)
  with
  | Some buf -> Some (Ftn_interp.Rtval.float_buffer buf)
  | None -> None

let device_time run = run.exec.Executor.device_time_s
let kernel_time run = run.exec.Executor.kernel_time_s
let output run = run.exec.Executor.output

let fpga_power ?(backend = Ftn_backend.Backend_registry.default) run =
  match run.bitstream.Bitstream.kernels with
  | k :: _ ->
    Ftn_backend.Backend.power_w backend k.Bitstream.kd_resources
      ~kernel_time_s:run.exec.Executor.kernel_time_s
      ~device_time_s:run.exec.Executor.device_time_s
  | [] ->
    Ftn_backend.Backend.power_w backend
      {
        Resources.kernel = Resources.zero;
        total = Resources.zero;
        lut_pct = 0.0;
        bram_pct = 0.0;
        dsp_pct = 0.0;
        fused_macs = 0;
        lut_macs = 0;
      }
      ~kernel_time_s:0.0 ~device_time_s:0.0
