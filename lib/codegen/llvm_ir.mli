(** LLVM-IR text emission from the llvm-dialect module. Emits
    typed-pointer IR (the format AMD's LLVM-7-based HLS backend consumes);
    block arguments become phi nodes, constants fold inline into operand
    positions, fneg lowers to an fsub identity. *)

exception Emit_error of string

val llvm_type : Ftn_ir.Types.t -> string
val float_lit : Ftn_ir.Types.t -> float -> string
(** A float constant of the given type as LLVM reads it back exactly: an
    f32 value is rounded to f32 before it is printed. *)

val target_header : string
(** ModuleID, datalayout and the [fpga64-xilinx-none] triple. *)

val rv_target_header : string
(** ModuleID, datalayout and the [riscv64-unknown-elf] triple, for the
    RISC-V accelerator backend. *)

val emit_module : ?header:string -> Ftn_ir.Op.t -> string
(** Emit a whole builtin.module of llvm.func ops as .ll text. [header]
    selects the target preamble (default {!target_header}). *)
