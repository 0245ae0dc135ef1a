(** Operations, blocks and regions.

    The IR is a purely functional tree in MLIR's generic-operation shape:
    every operation has a dialect-qualified name, SSA operands/results,
    named attributes and nested regions. Transformations rebuild the parts
    of the tree they change; SSA use-def relations are implicit through
    {!Value} identity. *)

type t = {
  name : string;  (** Dialect-qualified, e.g. ["arith.addf"]. *)
  operands : Value.t list;
  results : Value.t list;
  attrs : (string * Attr.t) list;
  regions : region list;
}

and block = {
  label : string;
  args : Value.t list;
  body : t list;
}

and region = block list

val make :
  ?operands:Value.t list ->
  ?results:Value.t list ->
  ?attrs:(string * Attr.t) list ->
  ?regions:region list ->
  string ->
  t

val name : t -> string
val operands : t -> Value.t list
val results : t -> Value.t list
val attrs : t -> (string * Attr.t) list
val regions : t -> region list

val dialect : t -> string
(** Prefix of the op name before the first ['.']. *)

val find_attr : t -> string -> Attr.t option
val has_attr : t -> string -> bool
val set_attr : t -> string -> Attr.t -> t
val remove_attr : t -> string -> t
val loc : t -> Ftn_diag.Loc.t
(** The op's source location ([Loc.unknown] if none attached). *)

val set_loc : t -> Ftn_diag.Loc.t -> t
(** Attach a source location (no-op for unknown locations). *)

val int_attr : t -> string -> int option
val string_attr : t -> string -> string option
val symbol_attr : t -> string -> string option
val bool_attr : t -> string -> bool option
val float_attr : t -> string -> float option

val operand : t -> int -> Value.t
val operand_opt : t -> int -> Value.t option
val result : t -> int -> Value.t

val result1 : t -> Value.t
(** The unique result; raises [Invalid_argument] if there is not exactly one. *)

val block : ?label:string -> ?args:Value.t list -> t list -> block
val region : ?label:string -> ?args:Value.t list -> t list -> region
(** Single-block region. *)

val region_body : t -> int -> t list
(** Body of the [i]-th region, which must be single-block. *)

val region_block : t -> int -> block

val walk : (t -> unit) -> t -> unit
(** Pre-order traversal of an op and all nested ops. *)

val walk_ops : (t -> unit) -> t list -> unit
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
val exists : (t -> bool) -> t -> bool
val count : (t -> bool) -> t -> int
val collect : (t -> bool) -> t -> t list

val rewrite_bottom_up : (t -> t list) -> t -> t list
(** Rebuild bottom-up: the callback sees each op after its regions have been
    rewritten and may drop it ([[]]), keep it ([[op]]) or expand it. *)

val map_shared : ('a -> 'a) -> 'a list -> 'a list
(** [List.map f l], except that it returns [l] itself when [f] returns
    every element physically unchanged, so a rebuild that changes
    nothing keeps sharing the original list. *)

val filter_map_shared : ('a -> 'a option) -> 'a list -> 'a list
(** [List.filter_map f l], returning [l] itself when [f] keeps every
    element physically unchanged. *)

val substitute : (Value.t -> Value.t option) -> t -> t
(** Replace operand uses throughout the tree. Definitions are untouched. *)

val substitute_map : Value.t Value.Map.t -> t -> t
val uses : t -> Value.Set.t
val defs : t -> Value.Set.t

val free_values : t -> Value.Set.t
(** Values used inside [op] but defined outside it — the capture set when
    outlining. *)

val free_values_of_ops : t list -> Value.Set.t

val renumber : t -> t
(** Canonical dense renumbering: every value defined in the tree (results
    and block args) gets a fresh id in pre-order position from 0;
    internal uses are remapped, free values keep their original ids (the
    caller must ensure those cannot collide with the fresh range). Two
    structurally identical trees renumber to byte-identical printed IR
    regardless of how their ids were originally allocated. *)

val module_op : ?attrs:(string * Attr.t) list -> t list -> t
(** Wrap ops into a [builtin.module]. *)

val is_module : t -> bool
val module_body : t -> t list
val with_module_body : t -> t list -> t

val find_function : t -> string -> t option
(** Find a [func.func] by symbol name in a module. *)
