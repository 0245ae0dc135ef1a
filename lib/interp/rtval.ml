(* Runtime values for the IR interpreter. Buffers model memrefs: typed,
   shaped, mutable storage shared by reference (so stores through one view
   are seen by every alias, as with real memory). An f32 buffer holds
   4-byte floats, so whatever path writes it, each element it holds is an
   f32 value. *)

open Ftn_ir

exception Interp_error of string

type f32_array =
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type mem =
  | F of float array
  | F32 of f32_array
  | I of int array

type buffer = {
  elt : Types.t;
  shape : int list;
  mem : mem;
  memory_space : int;
  label : string;  (* identifier for traces; "" when anonymous *)
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

let buffer_size shape = List.fold_left ( * ) 1 shape

(* The element count and its storage bytes are computed with overflow
   checks, so an extent too large for memory fails before allocating. *)
let alloc_buffer ?(memory_space = 0) ?(label = "") elt shape =
  let fail why =
    raise
      (Interp_error
         (Fmt.str "cannot allocate %s[%s]: %s" (Types.to_string elt)
            (String.concat "x" (List.map string_of_int shape))
            why))
  in
  let mul a b =
    let p = a * b in
    if b <> 0 && p / b <> a then fail "its size in bytes overflows" else p
  in
  let n = max 1 (List.fold_left mul 1 shape) in
  ignore (mul n (match elt with Types.F32 -> 4 | _ -> 8));
  let mem =
    try
      match elt with
      | Types.F32 ->
        let a = Bigarray.Array1.create Bigarray.Float32 Bigarray.C_layout n in
        Bigarray.Array1.fill a 0.0;
        F32 a
      | _ when Types.is_float elt -> F (Array.make n 0.0)
      | _ -> I (Array.make n 0)
    with Out_of_memory | Invalid_argument _ -> fail "out of memory"
  in
  { elt; shape; mem; memory_space; label }

let buffer_len buf = buffer_size buf.shape

(* Row-major linear index. *)
let linearize shape indices =
  let rec go acc shape indices =
    match (shape, indices) with
    | [], [] -> acc
    | d :: shape, i :: indices ->
      if i < 0 || i >= d then
        invalid_arg
          (Fmt.str "index %d out of bounds for dimension of size %d" i d);
      go ((acc * d) + i) shape indices
    | _ -> invalid_arg "linearize: rank mismatch"
  in
  match (shape, indices) with
  | [], [] -> 0
  | d :: shape, i :: indices ->
    if i < 0 || i >= d then
      invalid_arg
        (Fmt.str "index %d out of bounds for dimension of size %d" i d);
    go i shape indices
  | _ -> invalid_arg "linearize: rank mismatch"

let load buf indices =
  let k = linearize buf.shape indices in
  match buf.mem with
  | F a -> Float a.(k)
  | F32 a -> Float a.{k}
  | I a -> if Types.equal buf.elt Types.I1 then Bool (a.(k) <> 0) else Int a.(k)

(* A float32 store rounds to single precision, as Fortran REAL does. *)
let store buf indices v =
  let k = linearize buf.shape indices in
  match (buf.mem, v) with
  | F a, Float x -> a.(k) <- x
  | F a, Int n -> a.(k) <- float_of_int n
  | F32 a, Float x -> a.{k} <- x
  | F32 a, Int n -> a.{k} <- float_of_int n
  | I a, Int n -> a.(k) <- n
  | I a, Bool b -> a.(k) <- (if b then 1 else 0)
  | I a, Float x -> a.(k) <- int_of_float x
  | _ -> invalid_arg "store: value/buffer type mismatch"

let length = function
  | F a -> Array.length a
  | F32 a -> Bigarray.Array1.dim a
  | I a -> Array.length a

(* Element [i] as a float, for the copies that convert. *)
let float_at mem i =
  match mem with
  | F a -> a.(i)
  | F32 a -> a.{i}
  | I a -> float_of_int a.(i)

let copy_into ~src ~dst =
  let n = min (length src.mem) (length dst.mem) in
  match (src.mem, dst.mem) with
  | F a, F b -> Array.blit a 0 b 0 n
  | I a, I b -> Array.blit a 0 b 0 n
  | F32 a, F32 b when n = Bigarray.Array1.dim a && n = Bigarray.Array1.dim b
    ->
    Bigarray.Array1.blit a b
  | _, F b ->
    for i = 0 to n - 1 do
      b.(i) <- float_at src.mem i
    done
  | _, F32 b ->
    for i = 0 to n - 1 do
      b.{i} <- float_at src.mem i
    done
  | _, I b ->
    for i = 0 to n - 1 do
      b.(i) <- int_of_float (float_at src.mem i)
    done

let byte_size buf = buffer_len buf * Types.byte_size buf.elt

let as_int = function
  | Int n -> n
  | Bool b -> if b then 1 else 0
  | Float x -> int_of_float x
  | Unit | Buf _ | Handle _ | Proto _ | StreamQ _ -> invalid_arg "as_int"

let as_float = function
  | Float x -> x
  | Int n -> float_of_int n
  | Bool b -> if b then 1.0 else 0.0
  | Unit | Buf _ | Handle _ | Proto _ | StreamQ _ -> invalid_arg "as_float"

let as_bool = function
  | Bool b -> b
  | Int n -> n <> 0
  | Unit | Float _ | Buf _ | Handle _ | Proto _ | StreamQ _ ->
    invalid_arg "as_bool"

let as_buffer = function
  | Buf b -> b
  | Unit | Int _ | Float _ | Bool _ | Handle _ | Proto _ | StreamQ _ ->
    invalid_arg "as_buffer"

let float_buffer buf =
  match buf.mem with
  | F a -> Array.copy a
  | F32 a -> Array.init (Bigarray.Array1.dim a) (fun i -> a.{i})
  | I _ -> invalid_arg "float_buffer: integer buffer"

let of_float_array ?(memory_space = 0) ?(label = "") ?shape elt a =
  let shape = match shape with Some s -> s | None -> [ Array.length a ] in
  let mem =
    match elt with
    | Types.F32 ->
      F32 (Bigarray.Array1.of_array Bigarray.Float32 Bigarray.C_layout a)
    | _ when Types.is_float elt -> F (Array.copy a)
    | _ -> invalid_arg "of_float_array: integer element type"
  in
  { elt; shape; mem; memory_space; label }

let of_int_array ?(memory_space = 0) ?(label = "") ?shape elt a =
  if Types.is_float elt then invalid_arg "of_int_array: float element type";
  let shape = match shape with Some s -> s | None -> [ Array.length a ] in
  { elt; shape; mem = I (Array.copy a); memory_space; label }

let pp fmt = function
  | Unit -> Fmt.string fmt "unit"
  | Int n -> Fmt.int fmt n
  | Float x -> Fmt.float fmt x
  | Bool b -> Fmt.bool fmt b
  | Buf b ->
    Fmt.pf fmt "buffer<%a:%s>"
      (Fmt.list ~sep:(Fmt.any "x") Fmt.int)
      b.shape
      (Types.to_string b.elt)
  | Handle h -> Fmt.pf fmt "kernel#%d" h
  | Proto p -> Fmt.pf fmt "proto#%d" p
  | StreamQ q -> Fmt.pf fmt "stream<%d queued>" (Queue.length q)
