(** arith dialect: integer/float arithmetic, comparisons and casts, plus
    the fold tables shared by canonicalisation and the interpreter. *)

open Ftn_ir

(** {2 Constants} *)

val constant : Builder.t -> Attr.t -> Types.t -> Op.t
val const_int : Builder.t -> int -> Types.t -> Op.t
val const_index : Builder.t -> int -> Op.t
val const_i32 : Builder.t -> int -> Op.t
val const_i64 : Builder.t -> int -> Op.t
val const_float : Builder.t -> float -> Types.t -> Op.t
val const_f32 : Builder.t -> float -> Op.t
val const_f64 : Builder.t -> float -> Op.t
val const_bool : Builder.t -> bool -> Op.t
val is_constant : Op.t -> bool
val constant_value : Op.t -> Attr.t option
val constant_int : Op.t -> int option
val constant_float : Op.t -> float option

(** {2 Integer and float binary operations} *)

val binop : Builder.t -> string -> Value.t -> Value.t -> Op.t
val addi : Builder.t -> Value.t -> Value.t -> Op.t
val subi : Builder.t -> Value.t -> Value.t -> Op.t
val muli : Builder.t -> Value.t -> Value.t -> Op.t
val divsi : Builder.t -> Value.t -> Value.t -> Op.t
val remsi : Builder.t -> Value.t -> Value.t -> Op.t
val maxsi : Builder.t -> Value.t -> Value.t -> Op.t
val minsi : Builder.t -> Value.t -> Value.t -> Op.t
val andi : Builder.t -> Value.t -> Value.t -> Op.t
val ori : Builder.t -> Value.t -> Value.t -> Op.t
val xori : Builder.t -> Value.t -> Value.t -> Op.t

val float_binop :
  Builder.t -> string -> ?fastmath:bool -> Value.t -> Value.t -> Op.t

val addf : Builder.t -> ?fastmath:bool -> Value.t -> Value.t -> Op.t
val subf : Builder.t -> ?fastmath:bool -> Value.t -> Value.t -> Op.t
val mulf : Builder.t -> ?fastmath:bool -> Value.t -> Value.t -> Op.t
val divf : Builder.t -> ?fastmath:bool -> Value.t -> Value.t -> Op.t
val maxf : Builder.t -> ?fastmath:bool -> Value.t -> Value.t -> Op.t
val minf : Builder.t -> ?fastmath:bool -> Value.t -> Value.t -> Op.t
val negf : Builder.t -> Value.t -> Op.t

(** {2 Comparisons} *)

type int_pred = Eq | Ne | Slt | Sle | Sgt | Sge

val string_of_int_pred : int_pred -> string
val int_pred_of_string : string -> int_pred option
val cmpi : Builder.t -> int_pred -> Value.t -> Value.t -> Op.t

type float_pred = Oeq | One | Une | Olt | Ole | Ogt | Oge
(** IEEE comparisons as in MLIR: the ordered predicates ([o*]) are false
    when an operand is NaN; [Une] (unordered or not equal) is true. *)

val string_of_float_pred : float_pred -> string
val float_pred_of_string : string -> float_pred option
val cmpf : Builder.t -> float_pred -> Value.t -> Value.t -> Op.t

(** {2 Casts and select} *)

val index_cast : Builder.t -> Value.t -> Types.t -> Op.t
val sitofp : Builder.t -> Value.t -> Types.t -> Op.t
val fptosi : Builder.t -> Value.t -> Types.t -> Op.t
val extf : Builder.t -> Value.t -> Types.t -> Op.t
val truncf : Builder.t -> Value.t -> Types.t -> Op.t
val extsi : Builder.t -> Value.t -> Types.t -> Op.t
val trunci : Builder.t -> Value.t -> Types.t -> Op.t
val select : Builder.t -> Value.t -> Value.t -> Value.t -> Op.t

(** {2 Fold tables} *)

val fold_int_binop : string -> int -> int -> int option
(** [None] on unfoldable ops (division by zero, unknown name). *)

val fold_float_binop : string -> Types.t -> float -> float -> float option
(** [fold_float_binop name ty x y] folds at result type [ty]: at f32 the
    operands and the result are rounded to f32. [None] on unknown names. *)

val eval_int_pred : int_pred -> int -> int -> bool
val eval_float_pred : float_pred -> float -> float -> bool
val int_binop_names : string list
val float_binop_names : string list

val register : unit -> unit
