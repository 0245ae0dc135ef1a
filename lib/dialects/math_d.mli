(** math dialect: elementary floating-point functions. *)

open Ftn_ir

val unary : Builder.t -> string -> Value.t -> Op.t
val sqrt : Builder.t -> Value.t -> Op.t
val exp : Builder.t -> Value.t -> Op.t
val log : Builder.t -> Value.t -> Op.t
val sin : Builder.t -> Value.t -> Op.t
val cos : Builder.t -> Value.t -> Op.t
val tanh : Builder.t -> Value.t -> Op.t
val absf : Builder.t -> Value.t -> Op.t
val powf : Builder.t -> Value.t -> Value.t -> Op.t
val unary_names : string list

val unary_fn : string -> (float -> float) option
(** Resolve a [math.*] op name to its evaluation function, so callers can
    hoist the name dispatch out of hot loops; shared by both engines. *)

val register : unit -> unit
