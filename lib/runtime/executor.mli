(** Host-module executor: gives the device dialect its runtime semantics
    against the simulated FPGA. Kernels named by device.kernel_create are
    executed functionally through the interpreter (results are real
    numbers) while the timing model charges the simulated timeline for
    transfers, launches, allocations and kernel cycles.

    Timing is event-based and asynchronous (see {!Event} and
    {!Scheduler}): every charge is scheduled on one engine lane of the
    context's simulated device, several contexts can share a scheduler
    and queue against each other, transfers overlap compute on duplex
    DMA lanes, and [device.kernel_launch] / [device.kernel_wait] are a
    true async enqueue + blocking wait pair. A single chained program on
    a fresh scheduler sees timings identical to the old synchronous
    model.

    The host API functions ([api_*]) expose the same OpenCL-level
    operations to hand-written OCaml host drivers (used by the hand-written
    HLS baselines), so both paths share one cost model.

    The executor is fault-tolerant: pass a {!Ftn_fault.Fault.plan} to
    inject deterministic alloc/transfer/launch failures, absorbed by the
    retry machinery (exponential backoff charged to the simulated overhead
    track, eviction after device OOM, drain to a healthy peer device for
    persistent kernel faults when one exists, host-CPU fallback
    otherwise). All runtime errors raise the structured
    {!Ftn_fault.Fault.Error}. *)

type context

type result = {
  output : string;  (** Captured [print *] output. *)
  device_time_s : float;
      (** kernel + transfers + overheads + CPU fallback — busy time (the
          sum of charges), not the makespan; see [finish_s]. *)
  kernel_time_s : float;
  transfer_time_s : float;
  overhead_time_s : float;
  fallback_time_s : float;
      (** Simulated host time spent executing kernels that degraded to
          the CPU. *)
  kernel_launches : int;
  bytes_transferred : int;
  degraded : bool;
      (** At least one kernel of {e this context} fell back to host
          execution. Per-job: a peer context's fallback on a shared
          scheduler never sets it. *)
  drained : bool;
      (** This context migrated to a peer device after its original
          device failed persistently. *)
  retries : int;  (** Operation attempts repeated after an injected fault. *)
  cpu_fallbacks : int;
  faults_injected : int;
  device : int;
      (** Simulated device the context finished on (0-based). *)
  finish_s : float;
      (** Scheduler-timeline instant the context's last operation
          (including unwaited launches) retires. *)
  trace : Trace.t;
      (** Every charge of the run, in program order: the times and
          counters above (but [drained] and [faults_injected]) are
          folded from it. *)
  data : Data_env.t;
}

val create_context :
  ?echo:bool ->
  ?engine:Ftn_interp.Interp.engine ->
  ?diag:Ftn_diag.Diag_engine.t ->
  ?faults:Ftn_fault.Fault.plan ->
  ?retry:Ftn_fault.Fault.retry_policy ->
  ?sched:Scheduler.t ->
  ?device:Scheduler.device ->
  ?start_s:float ->
  Ftn_hlsim.Bitstream.t ->
  context
(** The timing model is read from the bitstream's [model] field — there
    is no device parameter and no U280 fallback. [engine] selects the
    interpreter engine for kernels and host modules
    run against this context; defaults to
    [Ftn_interp.Interp.default_engine ()]. [diag] receives recovery
    warnings and runtime errors (defaults to the shared engine); [faults]
    enables deterministic fault injection; [retry] tunes the recovery
    policy (defaults to {!Ftn_fault.Fault.default_retry}).

    [sched] places the context on a shared multi-device scheduler
    (defaults to a fresh single-device one — the synchronous legacy
    behaviour); [device] pins it to a specific device (defaults to
    {!Scheduler.pick_device}); [start_s] is the scheduler-timeline
    instant the context's program begins (its admission time — defaults
    to 0). *)

val context_device : context -> Scheduler.device
(** Current placement (a drain moves it). *)

val context_scheduler : context -> Scheduler.t

(** {2 Host API} *)

val api_alloc :
  context ->
  name:string ->
  memory_space:int ->
  elt:Ftn_ir.Types.t ->
  shape:int list ->
  Ftn_interp.Rtval.buffer
(** Allocate (or reuse) a named device buffer, charging the first-touch
    overhead. A persistent injected allocation failure is recovered by
    evicting unreferenced buffers; if nothing can be evicted the call
    raises [Retries_exhausted]. *)

val api_transfer :
  context -> src:Ftn_interp.Rtval.buffer -> dst:Ftn_interp.Rtval.buffer -> unit
(** Copy between buffers; crossing memory spaces charges DMA time on the
    direction's DMA lane ([Copy_in] for h2d, [Copy_out] for d2h) and
    records a trace event. The transfer waits for this context's
    in-flight kernels but otherwise overlaps peer contexts' compute.
    Endpoints must agree on element type and byte size or the call
    raises a structured [Transfer_mismatch]. *)

val api_launch : context -> kernel:string -> Ftn_interp.Rtval.t list -> unit
(** Blocking launch (enqueue + wait, an OpenCL enqueue/clFinish pair):
    execute a bitstream kernel functionally and charge its modelled
    cycles plus launch overhead. A persistently failing kernel drains to
    a healthy peer device when one exists and degrades to host-CPU
    execution otherwise. *)

val api_launch_async :
  context -> kernel:string -> Ftn_interp.Rtval.t list -> Event.t
(** Async enqueue: charges the kernel on the device's compute lane and
    returns its completion event without advancing the host's timeline
    cursor. Pass the event to {!wait_event} to block on it. *)

val wait_event : context -> Event.t -> unit
(** Advance the context's timeline cursor to the event's finish. *)

val result_of_context : context -> result
(** Also emits the end-of-run leak report: entries still holding
    references at teardown bump the [data_env.leaked] metric and warn
    through the context's diagnostic engine. *)

val finish_time : context -> float
(** Scheduler-timeline instant the context's work so far (including
    unwaited launches) retires. *)

(** {2 Interpreted host modules} *)

val run :
  ?echo:bool ->
  ?entry:string ->
  ?args:Ftn_interp.Rtval.t list ->
  ?engine:Ftn_interp.Interp.engine ->
  ?diag:Ftn_diag.Diag_engine.t ->
  ?faults:Ftn_fault.Fault.plan ->
  ?retry:Ftn_fault.Fault.retry_policy ->
  ?sched:Scheduler.t ->
  ?device:Scheduler.device ->
  ?start_s:float ->
  host:Ftn_ir.Op.t ->
  bitstream:Ftn_hlsim.Bitstream.t ->
  unit ->
  result
(** Interpret the host module (its [ftn.main] program unless [entry] is
    given) against a bitstream. An escaping {!Ftn_fault.Fault.Error} is
    recorded in [diag] (with the launching op's source location) before
    it propagates. [sched]/[device]/[start_s] place the run on a shared
    multi-device scheduler, as in {!create_context}.

    The device.* ops and two-operand memref.dma_start are staged once
    per op, resolving attributes, data-environment key, source location,
    kernel design and record labels; a malformed op raises its
    structured error only when it executes. [device.kernel_launch] is an
    async enqueue; [device.kernel_wait] genuinely blocks, and waiting on
    an unknown, foreign or never-launched handle (or a non-handle
    operand) raises a structured [Invalid_host] error.

    The artifact — [host] and [bitstream], by identity — gets one runtime
    program on its first run, dropped when either is collected: an
    interpreter state per engine, whose staged ops and compiled
    functions serve every later run, and the artifact's record labels,
    shared by every metric and flight entry they name. A run
    borrows the state and binds its own context to it; afterwards no
    value of the run stays reachable from the program. Each run is
    isolated: its results equal those of a freshly compiled artifact. *)

val run_cpu :
  ?echo:bool ->
  ?entry:string ->
  ?args:Ftn_interp.Rtval.t list ->
  ?engine:Ftn_interp.Interp.engine ->
  Ftn_ir.Op.t ->
  string * int
(** CPU reference: run a core-level module with sequential OpenMP
    semantics; returns (captured output, interpreter steps). A runtime
    error of the program raises an unlocated [Diag] error. *)
