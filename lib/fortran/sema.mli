(** Semantic analysis: per-unit symbol tables, resolution of the
    array-reference / intrinsic / user-function ambiguity, named-constant
    folding, and type checking. The checked AST plus the symbol tables
    feed the FIR lowering. *)

exception Sema_error of string * Ftn_diag.Loc.t

type dim =
  | Dim_const of int
  | Dim_expr of Ast.expr  (** Extent known only at runtime (dummy args). *)

type symbol = {
  sym_name : string;
  sym_type : Ast.base_type;
  sym_dims : dim list;  (** Empty for scalars. *)
  sym_is_dummy : bool;
  sym_constant : Ast.expr option;  (** Folded value of named constants. *)
}

module Env : Map.S with type key = string

type unit_info = {
  ui_unit : Ast.program_unit;  (** With call nodes resolved. *)
  ui_symbols : symbol Env.t;
}

type checked = unit_info list

val is_intrinsic : string -> bool
val fold_const : symbol Env.t -> Ftn_diag.Loc.t -> Ast.expr -> Ast.expr option
(** Raises {!Sema_error} at the location when an integer folding step
    leaves the default kind's range, -2{^31}..2{^31}-1. *)

val const_int : symbol Env.t -> Ftn_diag.Loc.t -> Ast.expr -> int option
val expr_type : symbol Env.t -> Ftn_diag.Loc.t -> Ast.expr -> Ast.base_type
(** Raises {!Sema_error} on ill-typed expressions. *)

val check : ?engine:Ftn_diag.Diag_engine.t -> Ast.program -> checked
(** With [engine], semantic errors are accumulated (recovering per
    declaration and per top-level statement) and raised together as
    {!Ftn_diag.Diag.Diag_failure} at the end; without it the first error
    raises {!Sema_error}. *)
