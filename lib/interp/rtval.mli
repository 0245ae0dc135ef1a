(** Runtime values for the IR interpreter. Buffers model memrefs: typed,
    shaped, mutable storage shared by reference (stores through one view
    are seen by all aliases). An f32 buffer stores 4-byte floats, so every
    write to it rounds to single precision, matching Fortran REAL
    semantics. The constructors and {!float_buffer} copy: no buffer shares
    storage with an OCaml array. *)

exception Interp_error of string
(** A runtime error of the interpreted program; [Interp.Interp_error]. *)

type f32_array =
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Element storage, fixed by the element type: f32 in [F32], f16 and f64
    in [F], integers (i1 as 0/1) in [I]. *)
type mem =
  | F of float array
  | F32 of f32_array
  | I of int array

type buffer = private {
  elt : Ftn_ir.Types.t;
  shape : int list;
  mem : mem;
  memory_space : int;
  label : string;  (** Identifier shown in traces; [""] when anonymous. *)
}

type t =
  | Unit
  | Int of int
  | Float of float
  | Bool of bool
  | Buf of buffer
  | Handle of int  (** Kernel handle. *)
  | Proto of int  (** hls.axi_protocol token. *)
  | StreamQ of t Queue.t  (** On-chip FIFO (hls.stream). *)

val alloc_buffer :
  ?memory_space:int -> ?label:string -> Ftn_ir.Types.t -> int list -> buffer
(** Zero-initialised buffer of the given element type and shape ([[]] for
    rank 0). Raises {!Interp_error} naming the type and shape when the
    size overflows or the storage cannot be allocated. *)

val buffer_size : int list -> int
val buffer_len : buffer -> int

val linearize : int list -> int list -> int
(** Row-major linear index; raises [Invalid_argument] when out of bounds
    or on rank mismatch. *)

val load : buffer -> int list -> t
val store : buffer -> int list -> t -> unit

val copy_into : src:buffer -> dst:buffer -> unit
(** Element-wise copy with representation conversion, bounded by the
    shorter buffer. *)

val byte_size : buffer -> int
val as_int : t -> int
val as_float : t -> float
val as_bool : t -> bool
val as_buffer : t -> buffer

val float_buffer : buffer -> float array
(** A copy of a float buffer's elements; later stores to the buffer do not
    show in it. Raises [Invalid_argument] on an integer buffer. *)

val of_float_array :
  ?memory_space:int -> ?label:string -> ?shape:int list ->
  Ftn_ir.Types.t -> float array -> buffer
(** A float buffer holding a copy of the array, rounded when the element
    type is f32; [shape] defaults to the array's length. Raises
    [Invalid_argument] for an integer element type. *)

val of_int_array :
  ?memory_space:int -> ?label:string -> ?shape:int list ->
  Ftn_ir.Types.t -> int array -> buffer
(** An integer buffer holding a copy of the array. Raises
    [Invalid_argument] for a float element type. *)

val pp : Format.formatter -> t -> unit
