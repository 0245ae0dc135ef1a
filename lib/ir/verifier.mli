(** Structural IR verification: single definitions, def-before-use with
    MLIR's enclosing-region visibility (isolated-from-above for
    [builtin.module] / [func.func] / [device.kernel_create], the latter
    seeing its own operands), and per-op checks registered in the
    {!Dialect} registry. *)

val verify : ?strict:bool -> Op.t -> Ftn_diag.Diag.t list
(** Returns all diagnostics, each located at the offending op's [loc]
    attribute when present; empty means valid. [strict] also flags
    unregistered operations. Value ids must be non-negative, as
    {!Builder} and {!Ir_parser} produce them. *)

val verify_exn : ?strict:bool -> Op.t -> unit
(** Raises {!Ftn_diag.Diag.Diag_failure} with the collected diagnostics if
    invalid. *)

val is_valid : ?strict:bool -> Op.t -> bool
