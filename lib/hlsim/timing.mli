(** Timing model: converts a kernel schedule plus observed loop statistics
    into cycles/seconds, and costs DMA transfers, kernel launches and
    first-touch buffer allocations. *)

type loop_stats = {
  entries : (int, int) Hashtbl.t;  (** loop_key -> times entered. *)
  iterations : (int, int) Hashtbl.t;  (** loop_key -> total iterations. *)
}

val make_stats : unit -> loop_stats

val record_loop : loop_stats -> loop_key:int -> iters:int -> unit
(** Record one completed execution of a loop. *)

val kernel_cycles : Schedule.kernel_schedule -> loop_stats -> float
(** Cycles for one kernel execution given the loops' observed entry and
    iteration counts. *)

val kernel_time_s : Fpga_spec.t -> Schedule.kernel_schedule -> loop_stats -> float

val static_kernel_cycles :
  ?assumed_trip:int -> Schedule.kernel_schedule -> float
(** Compile-time estimate using static trip counts; loops with dynamic
    bounds are assumed to run [assumed_trip] iterations (default 0). *)

val transfer_time_s : Fpga_spec.t -> bytes:int -> float
val launch_overhead_s : Fpga_spec.t -> float
val alloc_overhead_s : Fpga_spec.t -> float
