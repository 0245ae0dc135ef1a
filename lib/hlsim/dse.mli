(** Design-space exploration over the simd unroll factor (the extension
    the paper lists as future work): per candidate factor the model
    predicts cycles/iteration and kernel LUT cost; the explorer returns
    the Pareto frontier and the best point within an optional budget. *)

type candidate = {
  unroll : int;
  cycles_per_iteration : float;
  kernel_luts : int;
  within_budget : bool;
}

type result = {
  candidates : candidate list;  (** Ascending unroll factor. *)
  pareto : candidate list;  (** Non-dominated candidates. *)
  best : candidate option;
      (** Fastest within budget; smallest unroll breaks ties. *)
}

val explore :
  spec:Fpga_spec.t ->
  ?frontend:Resources.frontend ->
  ?factors:int list ->
  ?lut_budget:int ->
  Schedule.kernel_schedule ->
  Schedule.loop_info ->
  result

val explore_kernel :
  spec:Fpga_spec.t ->
  ?frontend:Resources.frontend ->
  ?factors:int list ->
  ?lut_budget:int ->
  Schedule.kernel_schedule ->
  result option
(** Explore the kernel's first pipelined loop; [None] if there is none. *)

val pp_candidate : Format.formatter -> candidate -> unit
val pp : Format.formatter -> result -> unit
