(** Runtime-library intrinsics: the print routines Fortran's [print *]
    lowers onto, and the device runtime-library helpers (type conversion,
    directive no-ops). Output is captured in a sink for inspection. *)

type sink

val make_sink : ?echo:bool -> unit -> sink
(** [echo] also writes to stdout. *)

val output : sink -> string -> unit
val contents : sink -> string
val clear : sink -> unit
val format_float : float -> string

val print_handler : (Interp.state -> sink) -> Interp.handler
(** Handles the [ftn_print_*] call family, writing to the sink
    [sink_of state] names for the executing state. *)

val runtime_library_handler : Interp.handler
(** Handles [_hls_*] conversions and [_ssdm_op_*] directive calls. *)
