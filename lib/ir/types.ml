(* MLIR-style type system: builtin scalar/aggregate types plus the opaque
   dialect types used by the device and hls dialects. *)

type dim =
  | Static of int
  | Dynamic

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
  memory_space : int;
}

let memref ?(memory_space = 0) shape elt = Memref { shape; elt; memory_space }

let memref_static ?memory_space dims elt =
  memref ?memory_space (List.map (fun d -> Static d) dims) elt

let memref_dynamic ?memory_space rank elt =
  memref ?memory_space (List.init rank (fun _ -> Dynamic)) elt

let rec equal a b =
  match a, b with
  | I1, I1 | I8, I8 | I16, I16 | I32, I32 | I64, I64 | Index, Index
  | F16, F16 | F32, F32 | F64, F64
  | Kernel_handle, Kernel_handle | Axi_protocol, Axi_protocol ->
    true
  | Vector (n, u), Vector (m, v) -> n = m && equal u v
  | Stream u, Stream v | Ptr u, Ptr v -> equal u v
  | Memref mi, Memref mj ->
    mi.shape = mj.shape && equal mi.elt mj.elt
    && mi.memory_space = mj.memory_space
  | Tuple us, Tuple vs -> equal_list us vs
  | Func (ua, ur), Func (va, vr) -> equal_list ua va && equal_list ur vr
  | ( I1 | I8 | I16 | I32 | I64 | Index | F16 | F32 | F64 | Vector _
    | Memref _ | Tuple _ | Func _ | Kernel_handle | Axi_protocol
    | Stream _ | Ptr _ ), _ ->
    false

and equal_list us vs =
  List.length us = List.length vs && List.for_all2 equal us vs

let is_integer = function
  | I1 | I8 | I16 | I32 | I64 | Index -> true
  | F16 | F32 | F64 | Vector _ | Memref _ | Tuple _ | Func _
  | Kernel_handle | Axi_protocol | Stream _ | Ptr _ ->
    false

let is_float = function
  | F16 | F32 | F64 -> true
  | I1 | I8 | I16 | I32 | I64 | Index | Vector _ | Memref _ | Tuple _
  | Func _ | Kernel_handle | Axi_protocol | Stream _ | Ptr _ ->
    false

let is_memref = function Memref _ -> true | _ -> false

let bitwidth = function
  | I1 -> 1
  | I8 -> 8
  | I16 | F16 -> 16
  | I32 | F32 -> 32
  | I64 | F64 | Index -> 64
  | Vector _ | Memref _ | Tuple _ | Func _ | Kernel_handle | Axi_protocol
  | Stream _ | Ptr _ ->
    invalid_arg "Types.bitwidth: not a scalar type"

let byte_size ty = (bitwidth ty + 7) / 8

(* One cvtsd2ss and back: the rounding a float32 store does. *)
let round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let round_to ty x = match ty with F32 -> round_f32 x | _ -> x

(* Number of elements of a statically-shaped memref; raises on dynamic. *)
let memref_num_elements mi =
  List.fold_left
    (fun acc d ->
      match d with
      | Static n -> acc * n
      | Dynamic -> invalid_arg "Types.memref_num_elements: dynamic dim")
    1 mi.shape

let memref_rank mi = List.length mi.shape

let rec pp fmt ty =
  match ty with
  | I1 -> Fmt.string fmt "i1"
  | I8 -> Fmt.string fmt "i8"
  | I16 -> Fmt.string fmt "i16"
  | I32 -> Fmt.string fmt "i32"
  | I64 -> Fmt.string fmt "i64"
  | Index -> Fmt.string fmt "index"
  | F16 -> Fmt.string fmt "f16"
  | F32 -> Fmt.string fmt "f32"
  | F64 -> Fmt.string fmt "f64"
  | Vector (n, elt) -> Fmt.pf fmt "vector<%dx%a>" n pp elt
  | Memref { shape; elt; memory_space } ->
    let pp_dim fmt = function
      | Static n -> Fmt.pf fmt "%dx" n
      | Dynamic -> Fmt.string fmt "?x"
    in
    Fmt.pf fmt "memref<%a%a" (Fmt.list ~sep:Fmt.nop pp_dim) shape pp elt;
    if memory_space <> 0 then Fmt.pf fmt ", %d : i32" memory_space;
    Fmt.string fmt ">"
  | Tuple tys -> Fmt.pf fmt "tuple<%a>" (Fmt.list ~sep:(Fmt.any ", ") pp) tys
  | Func (args, results) ->
    Fmt.pf fmt "(%a) -> (%a)"
      (Fmt.list ~sep:(Fmt.any ", ") pp) args
      (Fmt.list ~sep:(Fmt.any ", ") pp) results
  | Kernel_handle -> Fmt.string fmt "!device.kernelhandle"
  | Axi_protocol -> Fmt.string fmt "!hls.axi_protocol"
  | Stream elt -> Fmt.pf fmt "!hls.stream<%a>" pp elt
  | Ptr elt -> Fmt.pf fmt "!llvm.ptr<%a>" pp elt

let to_string x =
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt 1_000_000;
  pp fmt x;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

