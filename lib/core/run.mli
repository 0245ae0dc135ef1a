(** Compile + synthesise + execute a Fortran program on the simulated
    FPGA, returning numerical results alongside simulated measurements. *)

type t = {
  artifacts : Compiler.artifacts;
  bitstream : Ftn_hlsim.Bitstream.t;
  exec : Ftn_runtime.Executor.result;
}

val run :
  ?options:Options.t ->
  ?echo:bool ->
  ?file:string ->
  ?engine:Ftn_diag.Diag_engine.t ->
  string ->
  t

val run_jobs :
  ?options:Options.t ->
  ?echo:bool ->
  ?file:string ->
  ?engine:Ftn_diag.Diag_engine.t ->
  ?fault_device:int ->
  ?queue_depth:int ->
  ?tenants:string list ->
  string ->
  Compiler.artifacts * Ftn_hlsim.Bitstream.t * Ftn_runtime.Jobs.stats
(** Submit [options.jobs] copies of the program through the job queue on
    [options.devices] simulated devices, round-robin over [tenants]
    (default 4). Compiles and synthesises once. [fault_device] pairs the
    options' fault plan with one device id (a persistently bad board
    whose queue drains to peers); without it the plan applies to every
    job. *)

val run_cpu :
  ?echo:bool ->
  ?file:string ->
  ?engine:Ftn_diag.Diag_engine.t ->
  string ->
  string * int
(** CPU reference execution (sequential OpenMP, no device); returns
    (captured output, interpreter steps). *)

val device_floats : t -> name:string -> float array option
(** A copy of a device buffer's elements, found by mapped identifier
    (memory space 1). *)

val device_time : t -> float
val kernel_time : t -> float
val output : t -> string

val fpga_power : ?backend:Ftn_backend.Backend.t -> t -> float
(** Modelled card draw for this run's kernel/duty profile. *)
