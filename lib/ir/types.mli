(** MLIR-style type system.

    Covers the builtin scalar, vector, memref and function types used by the
    core dialects, plus the opaque dialect types ([!device.kernelhandle],
    [!hls.axi_protocol], [!hls.stream<T>]) introduced by the paper's device
    and hls dialects. *)

type dim =
  | Static of int  (** Compile-time constant dimension. *)
  | Dynamic  (** Printed as [?]; size supplied at runtime. *)

type t =
  | I1
  | I8
  | I16
  | I32
  | I64
  | Index
  | F16
  | F32
  | F64
  | Vector of int * t
  | Memref of memref_info
  | Tuple of t list
  | Func of t list * t list
  | Kernel_handle
  | Axi_protocol
  | Stream of t
  | Ptr of t

and memref_info = {
  shape : dim list;
  elt : t;
  memory_space : int;  (** Device memory space; 0 is host/default. *)
}

val memref : ?memory_space:int -> dim list -> t -> t
(** [memref shape elt] builds a memref type (default memory space 0). *)

val memref_static : ?memory_space:int -> int list -> t -> t
(** Memref with all-static dimensions. *)

val memref_dynamic : ?memory_space:int -> int -> t -> t
(** [memref_dynamic rank elt] builds a memref of [rank] dynamic dims. *)

val equal : t -> t -> bool
val equal_list : t list -> t list -> bool
val is_integer : t -> bool
val is_float : t -> bool
val is_memref : t -> bool

val bitwidth : t -> int
(** Width of a scalar type in bits; raises [Invalid_argument] otherwise. *)

val byte_size : t -> int
(** Width of a scalar type in bytes, rounded up. *)

val round_f32 : float -> float
(** The f32 value nearest [x] (ties to even), as a float32 store rounds
    it: out-of-range values become infinities and a NaN stays a NaN. *)

val round_to : t -> float -> float
(** [x] at the precision of [ty]: {!round_f32} for f32, [x] itself for
    every other type. *)

val memref_num_elements : memref_info -> int
(** Element count of a statically-shaped memref; raises on dynamic dims. *)

val memref_rank : memref_info -> int

val pp : Format.formatter -> t -> unit
(** Prints MLIR syntax, e.g. [memref<100xf64, 1 : i32>]. *)

val to_string : t -> string
