(** Attributes: compile-time constant data attached to operations,
    mirroring MLIR's attribute system. *)

type t =
  | Unit
  | Bool of bool
  | Int of int * Types.t
  | Float of float * Types.t
  | String of string
  | Symbol of string  (** Symbol reference, printed [@name]. *)
  | Type of Types.t
  | Array of t list
  | Dict of (string * t) list
  | Loc of Ftn_diag.Loc.t
      (** Source location, printed [loc("f.f90":12:3)]. *)

val i32 : int -> t
val i64 : int -> t
val index : int -> t
val f32 : float -> t
val f64 : float -> t
val equal : t -> t -> bool

val as_int : t -> int option
val as_float : t -> float option
val as_string : t -> string option
val as_symbol : t -> string option
val as_bool : t -> bool option
val as_type : t -> Types.t option
val as_array : t -> t list option
val as_loc : t -> Ftn_diag.Loc.t option

val short_decimal : float -> string option
(** The [%.6e] text of an integral [x] below 1e15, when that text reads
    back as [x]; [None] otherwise. The IR and LLVM printers use it and
    print every other float in an exact hexadecimal form. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
