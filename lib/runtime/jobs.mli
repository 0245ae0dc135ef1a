(** Job queue for the multi-device runtime: admission control,
    per-tenant round-robin dispatch, tail-latency accounting and a
    resilience/QoS layer (deadlines, tenant quotas, per-device circuit
    breakers, overload shedding) over a shared {!Scheduler}.

    Dispatch is deterministic: tenants are cycled in first-appearance
    order taking one dependency-ready job each per cycle, devices are
    chosen least-loaded-first (gated by their circuit breaker) with
    lowest-id tie-break, shedding depends only on simulated timestamps,
    and outputs are concatenated in submission order — so a job list
    produces byte-identical output whatever the device count. Every
    resilience feature defaults to off, and a default-config run is
    byte-identical to the pre-resilience queue. *)

type spec = {
  js_name : string;  (** Unique job name; dependencies refer to it. *)
  js_tenant : string;
  js_deps : string list;
      (** Names of jobs whose completion gates this one's arrival. *)
  js_prio : int;
      (** Higher keeps the job longer under overload shedding; 0 default. *)
  js_deadline_s : float option;
      (** Max admission wait (arrival to start) before the job is shed;
          overrides the queue-wide default. *)
  js_run :
    ?faults:Ftn_fault.Fault.plan ->
    sched:Scheduler.t ->
    device:Scheduler.device ->
    start_s:float ->
    unit ->
    Executor.result;
      (** The job body — typically a closure over a compiled host module
          calling {!Executor.run} with the given placement. [faults] is
          injected by the queue when the job lands on the configured
          fault device. *)
}

val job :
  ?tenant:string ->
  ?deps:string list ->
  ?prio:int ->
  ?deadline_s:float ->
  name:string ->
  (?faults:Ftn_fault.Fault.plan ->
  sched:Scheduler.t ->
  device:Scheduler.device ->
  start_s:float ->
  unit ->
  Executor.result) ->
  spec
(** [tenant] defaults to ["default"], [deps] to none, [prio] to 0,
    [deadline_s] to the queue-wide default. *)

type config = {
  devices : int;
  queue_depth : int;
      (** In-flight jobs a device accepts before admission blocks on the
          oldest completion; must be [>= 1]. *)
  fault_device : (int * Ftn_fault.Fault.plan) option;
      (** Inject the plan into every job placed on this device id —
          models a persistently bad board; with the default retry
          policy's drain the device fails on first persistent kernel
          fault and its queue migrates to healthy peers (or the host CPU
          when none remain). *)
  default_deadline_s : float option;
      (** Queue-wide admission deadline for jobs without their own: a
          job whose start would exceed [arrival + deadline] is shed at
          that instant, charged only the deadline's worth of wait. *)
  tenant_quota : int option;
      (** Max in-flight jobs per tenant; at the cap the tenant's next
          admission gates on its own oldest completion. *)
  tenant_share : float option;
      (** Max fraction (in (0, 1]) of total admission capacity
          ([devices * queue_depth]) one tenant may hold in flight;
          combined with [tenant_quota] the tighter cap wins. *)
  slo_s : float option;
      (** Arrival-to-finish latency objective; completions above it
          count into [slo_violations] (globally and per tenant). *)
  breaker : Breaker.config option;
      (** Per-device circuit breakers fed by job outcomes (retries,
          faults, degradation, drain). *)
  shed_watermark : int option;
      (** Aggregate queued jobs above which overload shedding discards
          the excess — lowest priority first, then furthest past
          deadline, then newest submission. *)
}

val default_config : config
(** 1 device, queue depth 8, no fault device, every resilience feature
    off. *)

type tenant_stats = {
  t_name : string;
  t_run : int;
  t_shed : int;
  t_p50_s : float;
  t_p90_s : float;
  t_p99_s : float;
  t_slo_violations : int;
}

type stats = {
  jobs_run : int;
  jobs_dropped : int;
      (** Jobs never dispatched because a dependency could not finish
          (cyclic or unknown name); each one emits a structured warning
          through the diagnostics engine. *)
  jobs_shed : int;
      (** Jobs cancelled by the resilience layer before running; see
          [sheds] for the reasons. *)
  elapsed_s : float;  (** Simulated makespan: {!Scheduler.elapsed_s}. *)
  throughput_jps : float;  (** [jobs_run / elapsed_s] (simulated). *)
  p50_latency_s : float;
      (** Median arrival-to-finish latency (arrival = last dependency's
          finish), from the queue's private histogram registry. *)
  p90_latency_s : float;
  p99_latency_s : float;
  total_kernel_s : float;  (** Summed over completed jobs. *)
  total_transfer_s : float;
  degraded_jobs : int;  (** Jobs that ran at least one kernel on the CPU. *)
  drained_jobs : int;  (** Jobs migrated off a failed device. *)
  slo_violations : int;  (** 0 unless [config.slo_s] is set. *)
  shed_wait_s : float;  (** Total queue wait charged to shed jobs. *)
  sheds : Trace.shed list;
      (** The shed events of [trace], in shed order; [jobs_shed] and
          [shed_wait_s] are folded from them. *)
  tenants : tenant_stats list;  (** In first-appearance order. *)
  breakers : Breaker.snapshot list;  (** Empty without [config.breaker]. *)
  trace : Trace.t;
      (** Queue-level events: breaker transitions and sheds. *)
  output : string;  (** All job outputs, concatenated in submission order. *)
  results : (string * Executor.result) list;  (** Submission order. *)
  scheduler : Scheduler.t;  (** For per-device snapshots after the run. *)
}

val run : ?config:config -> ?diag:Ftn_diag.Diag_engine.t -> spec list -> stats
(** Dispatch every job and return the aggregate statistics. Every
    submitted job ends up in exactly one of [jobs_run], [jobs_dropped]
    or [jobs_shed]. Dropped jobs are reported as warnings through
    [diag] (default {!Ftn_diag.Diag_engine.default}). Raises
    [Invalid_argument] on a non-positive [queue_depth], [tenant_quota]
    or [shed_watermark], or a [tenant_share] outside (0, 1]. *)

val pp_stats : Format.formatter -> stats -> unit
