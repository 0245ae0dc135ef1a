(** arith dialect: integer/float arithmetic, comparisons and casts, with
    one variant per op and the evaluators shared by canonicalisation and
    the interpreter. *)

open Ftn_ir

(** {2 Ops} *)

type int_binop =
  | Addi | Subi | Muli | Divsi | Remsi | Maxsi | Minsi | Andi | Ori | Xori
type float_binop = Addf | Subf | Mulf | Divf | Maximumf | Minimumf
type cast =
  | Index_cast | Sitofp | Fptosi | Extf | Truncf | Extsi | Extui | Trunci

type kind =
  | Constant
  | Int_binop of int_binop
  | Float_binop of float_binop
  | Negf
  | Cmpi
  | Cmpf
  | Cast of cast
  | Select

val name : kind -> string
(** The op's name: the dialect's one table of names. *)

val all : kind list
(** Every op, in registration order. *)

val kind : Op.t -> kind option
(** The op's variant, [None] for an op of another dialect. *)

(** {2 Constants} *)

val constant : Builder.t -> Attr.t -> Types.t -> Op.t
val const_int : Builder.t -> int -> Types.t -> Op.t
val const_index : Builder.t -> int -> Op.t
val const_i32 : Builder.t -> int -> Op.t
val const_float : Builder.t -> float -> Types.t -> Op.t
val const_f32 : Builder.t -> float -> Op.t
val const_f64 : Builder.t -> float -> Op.t
val const_bool : Builder.t -> bool -> Op.t
val is_constant : Op.t -> bool
val constant_value : Op.t -> Attr.t option

type scalar =
  | Bool of bool
  | Int of int
  | Float of float

val scalar_of_attr : Attr.t -> scalar option
(** A constant's value as the folder and both engines read it: an i1 is
    true when non-zero, and a float is rounded to its type, so an f32
    literal means its f32 value. [None] for a non-scalar attribute. *)

val constant_int : Op.t -> int option

(** {2 Integer and float binary operations} *)

val int_binop : Builder.t -> int_binop -> Value.t -> Value.t -> Op.t
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
  Builder.t -> float_binop -> ?fastmath:bool -> Value.t -> Value.t -> Op.t

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

val cast : Builder.t -> cast -> Value.t -> Types.t -> Op.t
val index_cast : Builder.t -> Value.t -> Types.t -> Op.t
val sitofp : Builder.t -> Value.t -> Types.t -> Op.t
val fptosi : Builder.t -> Value.t -> Types.t -> Op.t
val extf : Builder.t -> Value.t -> Types.t -> Op.t
val truncf : Builder.t -> Value.t -> Types.t -> Op.t
val select : Builder.t -> Value.t -> Value.t -> Value.t -> Op.t

(** {2 Evaluators} *)

val eval_int_binop : int_binop -> Types.t -> int -> int -> int option
(** [eval_int_binop o ty x y] at result type [ty]: an i1 result is 0 or
    1. [None] when divsi or remsi divides by zero. *)

val eval_float_binop : float_binop -> Types.t -> float -> float -> float
(** [eval_float_binop o ty x y] at result type [ty]: an f32 result is
    rounded to f32. The operands are taken as given. *)

val eval_int_pred : int_pred -> int -> int -> bool
val eval_float_pred : float_pred -> float -> float -> bool

val register : unit -> unit
