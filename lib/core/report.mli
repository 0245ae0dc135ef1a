(** Human-readable reports for compiled and executed programs. *)

val pp_stages : Format.formatter -> Ftn_ir.Pass.stage_record list -> unit
val pp_bitstream : Format.formatter -> Ftn_hlsim.Bitstream.t -> unit
val pp_exec : Format.formatter -> Ftn_runtime.Executor.result -> unit
val pp_run : Format.formatter -> Run.t -> unit

val summary : Run.t -> string
(** Bitstream, timing breakdown and program output as one string. *)

val pp_sched : Format.formatter -> Ftn_runtime.Jobs.stats -> unit
(** The [--jobs] report: queue statistics (throughput, p50/p99 latency,
    drops, drains) plus one line per simulated device. *)

val sched_summary : Ftn_runtime.Jobs.stats -> string

val pp_compute_units : Format.formatter -> Ftn_runtime.Executor.result -> unit
(** The [--profile] report's compute-unit block: one line per kernel,
    in first-use order, with its launches, busy time, occupancy of the
    run's device time and CPU fallbacks; nothing for a run without
    launches or fallbacks. Starts with a blank line. *)

val pp_device_timeline :
  Format.formatter -> Ftn_runtime.Executor.result -> unit
(** The [--profile] report's device-utilization timeline: a blank line,
    a header with the window's length, and one character per bin naming
    the track that dominates it. Built from the run's trace; nothing for
    a run that charged nothing. *)

val pp_profile : Format.formatter -> Run.t -> unit
(** The [--profile] report: top hot ops (interpreter dispatch counts),
    hottest rewrite patterns by attributed time, per-pass wall/alloc
    table, per-kernel launch-latency quantiles, per-CU occupancy, an
    ASCII device-utilization timeline and a transfer-vs-compute roofline
    summary. *)

val profile_summary : Run.t -> string
