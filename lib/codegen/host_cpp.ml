(* Host code printer: generates C++ with OpenCL from the host module (the
   paper's "printer that we developed which generates C++ with OpenCL that
   is then compiled by Clang for the host").

   SSA values map onto single-assignment C++ locals; the device dialect
   maps onto a small ftn:: helper layer over the OpenCL C++ bindings
   (buffer cache keyed by identifier name, reference counters, HBM bank
   selection) that is emitted as a prelude into the same file.

   The printer is target-parametric: the shared core (arith/math/memref/
   scf/func, ~everything control flow) is emitted identically for every
   backend, while the device-dialect arms, prelude and setup section
   switch on the [target]. [Opencl] is the paper's Vitis/XRT flow; [Rv]
   emits the memory-mapped driver API of a RISC-V accelerator (after
   arXiv:2510.02170), where the "bitstream" is a flat binary image loaded
   into the accelerator's instruction memory. *)

open Ftn_ir
open Ftn_dialects

exception Cpp_error of string

let cpp_scalar_type ty =
  match ty with
  | Types.I1 -> "bool"
  | Types.I8 -> "int8_t"
  | Types.I16 -> "int16_t"
  | Types.I32 -> "int32_t"
  | Types.I64 | Types.Index -> "int64_t"
  | Types.F32 -> "float"
  | Types.F64 -> "double"
  | other -> raise (Cpp_error ("no C++ scalar type for " ^ Types.to_string other))

type buffer_info = {
  bi_elt : Types.t;
  bi_dims : string list;  (** C++ expressions for each dimension extent. *)
  bi_device : bool;
}

type target = Opencl | Rv

type ctx = {
  buf : Buffer.t;
  target : target;
  mutable indent : int;
  exprs : (int, string) Hashtbl.t;  (** value id -> C++ expression *)
  buffers : (int, buffer_info) Hashtbl.t;
  mutable event_count : int;
}

let line ctx fmt =
  Fmt.kstr
    (fun s ->
      Buffer.add_string ctx.buf (String.make (ctx.indent * 2) ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let expr ctx v =
  match Hashtbl.find_opt ctx.exprs (Value.id v) with
  | Some e -> e
  | None -> Fmt.str "v%d" (Value.id v)

let bind ctx v e = Hashtbl.replace ctx.exprs (Value.id v) e

let var v = Fmt.str "v%d" (Value.id v)

let buffer_info ctx v =
  match Hashtbl.find_opt ctx.buffers (Value.id v) with
  | Some bi -> bi
  | None -> raise (Cpp_error ("value is not a known buffer: " ^ var v))

let elt_of_memref v =
  match Value.ty v with
  | Types.Memref mi -> mi.Types.elt
  | _ -> raise (Cpp_error "expected memref value")

let byte_expr ctx v =
  let bi = buffer_info ctx v in
  let elems =
    match bi.bi_dims with [] -> "1" | ds -> String.concat " * " ds
  in
  Fmt.str "(%s) * sizeof(%s)" elems (cpp_scalar_type bi.bi_elt)

(* Linearised index expression (row-major). *)
let index_expr ctx dims indices =
  match (dims, indices) with
  | [], [] -> "0"
  | _ ->
    let rec go acc dims indices =
      match (dims, indices) with
      | [], [] -> acc
      | d :: dims, i :: indices ->
        go (Fmt.str "(%s) * (%s) + (%s)" acc d (expr ctx i)) dims indices
      | _ -> raise (Cpp_error "subscript rank mismatch")
    in
    (match (dims, indices) with
    | _ :: dims, i0 :: indices -> go (expr ctx i0) dims indices
    | _ -> raise (Cpp_error "subscript rank mismatch"))

(* C++ float literals need a decimal point or exponent before the suffix:
   %g alone prints 2.0 as "2". *)
let float_literal ?(single = false) x =
  let repr = if single then Fmt.str "%.9g" x else Fmt.str "%.17g" x in
  let needs_dot =
    not
      (String.exists
         (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n' || c = 'i')
         repr)
  in
  let repr = if needs_dot then repr ^ ".0" else repr in
  if single then repr ^ "f" else repr

let binop_cpp = function
  | "arith.addi" | "arith.addf" -> Some "+"
  | "arith.subi" | "arith.subf" -> Some "-"
  | "arith.muli" | "arith.mulf" -> Some "*"
  | "arith.divsi" | "arith.divf" -> Some "/"
  | "arith.remsi" -> Some "%"
  | "arith.andi" -> Some "&"
  | "arith.ori" -> Some "|"
  | "arith.xori" -> Some "^"
  | _ -> None

(* A comparison of the C++ expressions [a] and [b]. C++ [!=] is true on a
   NaN operand, as [une] is; [one] is false there. *)
let cmp_cpp p a b =
  let infix op = Fmt.str "((%s) %s (%s))" a op b in
  match p with
  | "eq" | "oeq" -> infix "=="
  | "ne" | "une" -> infix "!="
  | "one" -> Fmt.str "std::islessgreater(%s, %s)" a b
  | "slt" | "olt" -> infix "<"
  | "sle" | "ole" -> infix "<="
  | "sgt" | "ogt" -> infix ">"
  | "sge" | "oge" -> infix ">="
  | p -> raise (Cpp_error ("unknown predicate " ^ p))

let ns ctx = match ctx.target with Opencl -> "ftn" | Rv -> "ftn_rv"

let rec emit_ops ctx ops = List.iter (emit_op ctx) ops

and emit_op ctx op =
  let name = Op.name op in
  match name with
  | "arith.constant" -> (
    match Op.find_attr op "value" with
    | Some (Attr.Int (n, Types.I1)) ->
      bind ctx (Op.result1 op) (if n <> 0 then "true" else "false")
    | Some (Attr.Int (n, _)) -> bind ctx (Op.result1 op) (string_of_int n)
    | Some (Attr.Float (x, Types.F32)) ->
      bind ctx (Op.result1 op) (float_literal ~single:true x)
    | Some (Attr.Float (x, _)) -> bind ctx (Op.result1 op) (float_literal x)
    | _ -> raise (Cpp_error "constant without value"))
  | _ when binop_cpp name <> None -> (
    match (Op.operands op, binop_cpp name) with
    | [ a; b ], Some sym ->
      let r = Op.result1 op in
      line ctx "%s %s = %s %s %s;"
        (cpp_scalar_type (Value.ty r))
        (var r) (expr ctx a) sym (expr ctx b);
      bind ctx r (var r)
    | _ -> raise (Cpp_error (name ^ " malformed")))
  | "arith.maxsi" | "arith.maximumf" | "arith.minsi" | "arith.minimumf" -> (
    match Op.operands op with
    | [ a; b ] ->
      let r = Op.result1 op in
      let f =
        if name = "arith.maxsi" || name = "arith.maximumf" then "std::max"
        else "std::min"
      in
      line ctx "%s %s = %s(%s, %s);"
        (cpp_scalar_type (Value.ty r))
        (var r) f (expr ctx a) (expr ctx b);
      bind ctx r (var r)
    | _ -> raise (Cpp_error (name ^ " malformed")))
  | "arith.negf" -> (
    match Op.operands op with
    | [ a ] ->
      bind ctx (Op.result1 op) (Fmt.str "(-(%s))" (expr ctx a))
    | _ -> raise (Cpp_error "negf malformed"))
  | "arith.cmpi" | "arith.cmpf" -> (
    match (Op.operands op, Op.string_attr op "predicate") with
    | [ a; b ], Some p ->
      bind ctx (Op.result1 op) (cmp_cpp p (expr ctx a) (expr ctx b))
    | _ -> raise (Cpp_error "cmp malformed"))
  | "arith.select" -> (
    match Op.operands op with
    | [ c; t; f ] ->
      bind ctx (Op.result1 op)
        (Fmt.str "((%s) ? (%s) : (%s))" (expr ctx c) (expr ctx t) (expr ctx f))
    | _ -> raise (Cpp_error "select malformed"))
  | "arith.index_cast" | "arith.extsi" | "arith.trunci" | "arith.sitofp"
  | "arith.fptosi" | "arith.extf" | "arith.truncf" -> (
    match Op.operands op with
    | [ a ] ->
      bind ctx (Op.result1 op)
        (Fmt.str "((%s)(%s))"
           (cpp_scalar_type (Value.ty (Op.result1 op)))
           (expr ctx a))
    | _ -> raise (Cpp_error "cast malformed"))
  | "math.sqrt" | "math.exp" | "math.log" | "math.sin" | "math.cos"
  | "math.tanh" | "math.absf" -> (
    match Op.operands op with
    | [ a ] ->
      let f =
        match name with
        | "math.absf" -> "std::fabs"
        | _ -> "std::" ^ String.sub name 5 (String.length name - 5)
      in
      bind ctx (Op.result1 op) (Fmt.str "%s(%s)" f (expr ctx a))
    | _ -> raise (Cpp_error (name ^ " malformed")))
  | "math.powf" -> (
    match Op.operands op with
    | [ a; b ] ->
      bind ctx (Op.result1 op)
        (Fmt.str "std::pow(%s, %s)" (expr ctx a) (expr ctx b))
    | _ -> raise (Cpp_error "powf malformed"))
  | "memref.alloca" | "memref.alloc" -> (
    match Value.ty (Op.result1 op) with
    | Types.Memref mi ->
      let r = Op.result1 op in
      let dyn = ref (List.map (expr ctx) (Op.operands op)) in
      let dims =
        List.map
          (fun d ->
            match d with
            | Types.Static n -> string_of_int n
            | Types.Dynamic -> (
              match !dyn with
              | e :: rest ->
                dyn := rest;
                e
              | [] -> raise (Cpp_error "missing dynamic size")))
          mi.Types.shape
      in
      Hashtbl.replace ctx.buffers (Value.id r)
        { bi_elt = mi.Types.elt; bi_dims = dims; bi_device = false };
      if dims = [] then
        line ctx "%s %s = %s;"
          (cpp_scalar_type mi.Types.elt)
          (var r)
          (if Types.is_float mi.Types.elt then "0.0f" else "0")
      else
        line ctx "std::vector<%s> %s(%s);"
          (cpp_scalar_type mi.Types.elt)
          (var r)
          (String.concat " * " dims);
      bind ctx r (var r)
    | _ -> raise (Cpp_error "alloca of non-memref"))
  | "memref.load" -> (
    match Op.operands op with
    | mr :: indices ->
      let bi = buffer_info ctx mr in
      let r = Op.result1 op in
      (* a load reads mutable state: it is a local at the op, not an
         expression a later store could change before its use *)
      line ctx "%s %s = %s;"
        (cpp_scalar_type (Value.ty r))
        (var r)
        (if bi.bi_dims = [] then expr ctx mr
         else
           Fmt.str "%s[%s]" (expr ctx mr) (index_expr ctx bi.bi_dims indices));
      bind ctx r (var r)
    | [] -> raise (Cpp_error "load malformed"))
  | "memref.store" -> (
    match Op.operands op with
    | value :: mr :: indices ->
      let bi = buffer_info ctx mr in
      if bi.bi_dims = [] then
        line ctx "%s = %s;" (expr ctx mr) (expr ctx value)
      else
        line ctx "%s[%s] = %s;" (expr ctx mr)
          (index_expr ctx bi.bi_dims indices)
          (expr ctx value)
    | _ -> raise (Cpp_error "store malformed"))
  | "memref.dim" -> (
    match Op.operands op with
    | [ mr; idx ] ->
      let bi = buffer_info ctx mr in
      let i =
        try int_of_string (expr ctx idx)
        with Failure _ -> raise (Cpp_error "memref.dim needs constant index")
      in
      (match List.nth_opt bi.bi_dims i with
      | Some d -> bind ctx (Op.result1 op) (Fmt.str "((int64_t)(%s))" d)
      | None -> raise (Cpp_error "memref.dim out of range"))
    | _ -> raise (Cpp_error "dim malformed"))
  | "memref.dma_start" -> (
    match Op.operands op with
    | [ src; dst ] ->
      let sb = buffer_info ctx src and db = buffer_info ctx dst in
      let host_ptr side_bi side_expr =
        if side_bi.bi_dims = [] then Fmt.str "&%s" side_expr
        else Fmt.str "%s.data()" side_expr
      in
      (match (sb.bi_device, db.bi_device, ctx.target) with
      | false, true, Opencl ->
        line ctx "queue.enqueueWriteBuffer(%s, CL_TRUE, 0, %s, %s);"
          (expr ctx dst) (byte_expr ctx src)
          (host_ptr sb (expr ctx src))
      | true, false, Opencl ->
        line ctx "queue.enqueueReadBuffer(%s, CL_TRUE, 0, %s, %s);"
          (expr ctx src) (byte_expr ctx dst)
          (host_ptr db (expr ctx dst))
      | _, _, Opencl ->
        line ctx "ftn::device_copy(queue, %s, %s);" (expr ctx src)
          (expr ctx dst)
      | false, true, Rv ->
        line ctx "dev.dma_write(%s, %s, %s);" (expr ctx dst)
          (host_ptr sb (expr ctx src))
          (byte_expr ctx src)
      | true, false, Rv ->
        line ctx "dev.dma_read(%s, %s, %s);" (expr ctx src)
          (host_ptr db (expr ctx dst))
          (byte_expr ctx dst)
      | _, _, Rv ->
        line ctx "ftn_rv::device_copy(dev, %s, %s);" (expr ctx src)
          (expr ctx dst))
    | _ -> raise (Cpp_error "dma_start malformed"))
  | "memref.dma_wait" -> (
    match ctx.target with
    | Opencl -> line ctx "queue.finish();"
    | Rv -> line ctx "dev.dma_barrier();")
  | "device.alloc" -> (
    match Value.ty (Op.result1 op) with
    | Types.Memref mi ->
      let r = Op.result1 op in
      let name_attr = Option.value ~default:"buf" (Op.string_attr op "name") in
      let space = Option.value ~default:1 (Op.int_attr op "memory_space") in
      let dyn = ref (List.map (expr ctx) (Op.operands op)) in
      let dims =
        List.map
          (fun d ->
            match d with
            | Types.Static n -> string_of_int n
            | Types.Dynamic -> (
              match !dyn with
              | e :: rest ->
                dyn := rest;
                e
              | [] -> raise (Cpp_error "missing dynamic size")))
          mi.Types.shape
      in
      Hashtbl.replace ctx.buffers (Value.id r)
        { bi_elt = mi.Types.elt; bi_dims = dims; bi_device = true };
      let elems =
        match dims with [] -> "1" | ds -> String.concat " * " ds
      in
      (match ctx.target with
      | Opencl ->
        line ctx
          "cl::Buffer %s = ftn::device_alloc(context, \"%s\", %d, (%s) * sizeof(%s));"
          (var r) name_attr space elems
          (cpp_scalar_type mi.Types.elt)
      | Rv ->
        line ctx
          "ftn_rv::Buffer %s = ftn_rv::device_alloc(dev, \"%s\", %d, (%s) * sizeof(%s));"
          (var r) name_attr space elems
          (cpp_scalar_type mi.Types.elt));
      bind ctx r (var r)
    | _ -> raise (Cpp_error "device.alloc malformed"))
  | "device.lookup" -> (
    match Value.ty (Op.result1 op) with
    | Types.Memref mi ->
      let r = Op.result1 op in
      let name_attr = Option.value ~default:"buf" (Op.string_attr op "name") in
      let space = Option.value ~default:1 (Op.int_attr op "memory_space") in
      let dims =
        List.map
          (function
            | Types.Static n -> string_of_int n
            | Types.Dynamic -> "0" (* extent tracked by the helper layer *))
          mi.Types.shape
      in
      Hashtbl.replace ctx.buffers (Value.id r)
        { bi_elt = mi.Types.elt; bi_dims = dims; bi_device = true };
      (match ctx.target with
      | Opencl ->
        line ctx "cl::Buffer %s = ftn::device_lookup(\"%s\", %d);" (var r)
          name_attr space
      | Rv ->
        line ctx "ftn_rv::Buffer %s = ftn_rv::device_lookup(\"%s\", %d);"
          (var r) name_attr space);
      bind ctx r (var r)
    | _ -> raise (Cpp_error "device.lookup malformed"))
  | "device.data_check_exists" ->
    (* evaluated here, before a later data_acquire of the same name *)
    let r = Op.result1 op in
    line ctx "bool %s = %s::data_exists(\"%s\");" (var r) (ns ctx)
      (Option.value ~default:"buf" (Op.string_attr op "name"));
    bind ctx r (var r)
  | "device.data_acquire" ->
    line ctx "%s::data_acquire(\"%s\");" (ns ctx)
      (Option.value ~default:"buf" (Op.string_attr op "name"))
  | "device.data_release" ->
    line ctx "%s::data_release(\"%s\");" (ns ctx)
      (Option.value ~default:"buf" (Op.string_attr op "name"))
  | "device.kernel_create" -> (
    match Op.symbol_attr op "device_function" with
    | Some fname ->
      let r = Op.result1 op in
      (match ctx.target with
      | Opencl ->
        line ctx "cl::Kernel %s(program, \"%s\");" (var r) fname;
        List.iteri
          (fun i arg -> line ctx "%s.setArg(%d, %s);" (var r) i (expr ctx arg))
          (Op.operands op)
      | Rv ->
        line ctx "ftn_rv::Kernel %s = dev.kernel(\"%s\");" (var r) fname;
        List.iteri
          (fun i arg -> line ctx "%s.set_arg(%d, %s);" (var r) i (expr ctx arg))
          (Op.operands op));
      bind ctx r (var r)
    | None -> raise (Cpp_error "kernel_create without device_function"))
  | "device.kernel_launch" -> (
    match Op.operands op with
    | [ h ] ->
      ctx.event_count <- ctx.event_count + 1;
      let ev = Fmt.str "event%d" ctx.event_count in
      (match ctx.target with
      | Opencl ->
        line ctx "cl::Event %s;" ev;
        line ctx "queue.enqueueTask(%s, nullptr, &%s);" (expr ctx h) ev
      | Rv ->
        line ctx "uint64_t %s = dev.launch(%s);" ev (expr ctx h));
      (* remember the event for the matching wait *)
      bind ctx h (expr ctx h);
      Hashtbl.replace ctx.exprs (-Value.id h) ev
    | _ -> raise (Cpp_error "kernel_launch malformed"))
  | "device.kernel_wait" -> (
    match Op.operands op with
    | [ h ] -> (
      match (Hashtbl.find_opt ctx.exprs (-Value.id h), ctx.target) with
      | Some ev, Opencl -> line ctx "%s.wait();" ev
      | Some ev, Rv -> line ctx "dev.wait(%s);" ev
      | None, Opencl -> line ctx "queue.finish();"
      | None, Rv -> line ctx "dev.barrier();")
    | _ -> raise (Cpp_error "kernel_wait malformed"))
  | "scf.for" -> (
    match Scf.for_parts op with
    | Some parts when parts.Scf.iter_inits = [] ->
      let iv = parts.Scf.induction in
      line ctx "for (int64_t %s = %s; %s < %s; %s += %s) {" (var iv)
        (expr ctx parts.Scf.lb) (var iv) (expr ctx parts.Scf.ub) (var iv)
        (expr ctx parts.Scf.step);
      bind ctx iv (var iv);
      ctx.indent <- ctx.indent + 1;
      emit_ops ctx
        (List.filter (fun o -> not (Scf.is_yield o)) parts.Scf.body);
      ctx.indent <- ctx.indent - 1;
      line ctx "}"
    | Some parts ->
      (* loop-carried values become mutable locals *)
      let iv = parts.Scf.induction in
      List.iter2
        (fun arg init ->
          line ctx "%s %s = %s;"
            (cpp_scalar_type (Value.ty arg))
            (var arg) (expr ctx init);
          bind ctx arg (var arg))
        parts.Scf.iter_args parts.Scf.iter_inits;
      line ctx "for (int64_t %s = %s; %s < %s; %s += %s) {" (var iv)
        (expr ctx parts.Scf.lb) (var iv) (expr ctx parts.Scf.ub) (var iv)
        (expr ctx parts.Scf.step);
      bind ctx iv (var iv);
      ctx.indent <- ctx.indent + 1;
      let body, yield =
        List.partition (fun o -> not (Scf.is_yield o)) parts.Scf.body
      in
      emit_ops ctx body;
      (match yield with
      | [ y ] ->
        List.iter2
          (fun arg v -> line ctx "%s = %s;" (var arg) (expr ctx v))
          parts.Scf.iter_args (Op.operands y)
      | _ -> ());
      ctx.indent <- ctx.indent - 1;
      line ctx "}";
      List.iter2
        (fun res arg -> bind ctx res (var arg))
        (Op.results op) parts.Scf.iter_args
    | None -> raise (Cpp_error "malformed scf.for"))
  | "scf.if" ->
    let cond = List.hd (Op.operands op) in
    (* results become pre-declared locals assigned in each branch *)
    List.iter
      (fun r ->
        match Value.ty r with
        | Types.Memref _ ->
          Hashtbl.replace ctx.buffers (Value.id r)
            {
              bi_elt = elt_of_memref r;
              bi_dims =
                (match Value.ty r with
                | Types.Memref mi ->
                  List.map
                    (function
                      | Types.Static n -> string_of_int n
                      | Types.Dynamic -> "0")
                    mi.Types.shape
                | _ -> []);
              bi_device = true;
            };
          (match ctx.target with
          | Opencl -> line ctx "cl::Buffer %s;" (var r)
          | Rv -> line ctx "ftn_rv::Buffer %s;" (var r));
          bind ctx r (var r)
        | ty ->
          line ctx "%s %s{};" (cpp_scalar_type ty) (var r);
          bind ctx r (var r))
      (Op.results op);
    let emit_branch ops =
      ctx.indent <- ctx.indent + 1;
      let body, yield = List.partition (fun o -> not (Scf.is_yield o)) ops in
      emit_ops ctx body;
      (match yield with
      | [ y ] ->
        List.iter2
          (fun r v -> line ctx "%s = %s;" (var r) (expr ctx v))
          (Op.results op) (Op.operands y)
      | _ -> ());
      ctx.indent <- ctx.indent - 1
    in
    line ctx "if (%s) {" (expr ctx cond);
    emit_branch (Op.region_body op 0);
    if List.length (Op.regions op) > 1 then begin
      line ctx "} else {";
      emit_branch (Op.region_body op 1)
    end;
    line ctx "}"
  | "func.call" -> (
    match Op.symbol_attr op "callee" with
    | Some "ftn_print_str" ->
      line ctx "std::cout << \" %s\";"
        (Option.value ~default:"" (Op.string_attr op "text"))
    | Some ("ftn_print_i32" | "ftn_print_f32" | "ftn_print_f64" | "ftn_print_i1")
      -> (
      match Op.operands op with
      | [ v ] -> line ctx "std::cout << \" \" << %s;" (expr ctx v)
      | _ -> raise (Cpp_error "print call malformed"))
    | Some "ftn_print_newline" -> line ctx "std::cout << std::endl;"
    | Some callee ->
      let args = String.concat ", " (List.map (expr ctx) (Op.operands op)) in
      (match Op.results op with
      | [] -> line ctx "%s(%s);" callee args
      | [ r ] ->
        line ctx "auto %s = %s(%s);" (var r) callee args;
        bind ctx r (var r)
      | _ -> raise (Cpp_error "multi-result call"))
    | None -> raise (Cpp_error "call without callee"))
  | "func.return" -> line ctx "return;"
  | other -> raise (Cpp_error ("host printer cannot emit " ^ other))

let prelude =
  {|// Generated host code: Fortran OpenMP -> FPGA offload (OpenCL).
#include <CL/cl2.hpp>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace ftn {
// Reference-counted device data environment (paper, Section 3): data
// identifiers map to cached cl::Buffers; an integer counter per identifier
// implements data_acquire / data_release / data_check_exists.
static std::map<std::string, cl::Buffer> buffers;
static std::map<std::string, int> counters;

inline cl::Buffer device_alloc(cl::Context &context, const std::string &name,
                               int memory_space, size_t bytes) {
  auto it = buffers.find(name);
  if (it != buffers.end()) return it->second;
  cl_mem_ext_ptr_t ext;
  ext.flags = memory_space == 1 ? (unsigned)name.size() % 32 : XCL_MEM_DDR_BANK0;
  ext.obj = nullptr;
  ext.param = 0;
  cl::Buffer buf(context, CL_MEM_READ_WRITE | CL_MEM_EXT_PTR_XILINX, bytes,
                 &ext);
  buffers.emplace(name, buf);
  return buf;
}
inline cl::Buffer device_lookup(const std::string &name, int) {
  return buffers.at(name);
}
inline bool data_exists(const std::string &name) {
  auto it = counters.find(name);
  return it != counters.end() && it->second > 0;
}
inline void data_acquire(const std::string &name) { counters[name]++; }
inline void data_release(const std::string &name) {
  auto it = counters.find(name);
  if (it != counters.end() && it->second > 0) it->second--;
}
inline void device_copy(cl::CommandQueue &queue, cl::Buffer &src,
                        cl::Buffer &dst) {
  size_t bytes = src.getInfo<CL_MEM_SIZE>();
  queue.enqueueCopyBuffer(src, dst, 0, 0, bytes);
}
} // namespace ftn

|}

let rv_prelude =
  {|// Generated host code: Fortran OpenMP -> RISC-V accelerator offload.
// Driver model after "Programming RISC-V accelerators via Fortran": the
// accelerator is a memory-mapped compute cluster; the host loads a flat
// binary image into its instruction memory, stages data over DMA and
// dispatches kernels to hart groups through doorbell registers.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace ftn_rv {
struct Buffer {
  uint64_t addr = 0;  // device scratchpad / DRAM address
  size_t bytes = 0;
};
struct Kernel {
  uint32_t entry = 0;               // image entry point
  std::vector<uint64_t> args;       // argument registers a0..a7 spill
  void set_arg(int i, const Buffer &b) {
    if ((int)args.size() <= i) args.resize(i + 1);
    args[i] = b.addr;
  }
  template <typename T> void set_arg(int i, T v) {
    if ((int)args.size() <= i) args.resize(i + 1);
    uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof(T) < 8 ? sizeof(T) : 8);
    args[i] = raw;
  }
};
struct Device {
  std::map<std::string, uint32_t> entries;  // kernel name -> entry point
  uint64_t next_ticket = 0;
  void load_image(const std::string &path) {
    std::ifstream f(path, std::ifstream::binary);
    std::vector<char> image(std::istreambuf_iterator<char>(f), {});
    (void)image;  // written to the accelerator's instruction memory
  }
  Kernel kernel(const std::string &name) {
    Kernel k;
    k.entry = entries.count(name) ? entries[name] : 0;
    return k;
  }
  void dma_write(Buffer &dst, const void *src, size_t bytes) {
    (void)dst; (void)src; (void)bytes;  // host -> device DMA descriptor
  }
  void dma_read(Buffer &src, void *dst, size_t bytes) {
    (void)src; (void)dst; (void)bytes;  // device -> host DMA descriptor
  }
  void dma_barrier() {}
  uint64_t launch(Kernel &k) {
    (void)k;  // ring the doorbell with the entry point + args
    return ++next_ticket;
  }
  void wait(uint64_t ticket) { (void)ticket; }
  void barrier() {}
};
// Reference-counted device data environment — identical contract to the
// OpenCL flow, keyed by data identifier name.
static std::map<std::string, Buffer> buffers;
static std::map<std::string, int> counters;
static uint64_t bump_addr = 0x8000'0000ull;

inline Buffer device_alloc(Device &, const std::string &name, int,
                           size_t bytes) {
  auto it = buffers.find(name);
  if (it != buffers.end()) return it->second;
  Buffer b;
  b.addr = bump_addr;
  b.bytes = bytes;
  bump_addr += (bytes + 63) & ~63ull;  // cache-line aligned bump allocator
  buffers.emplace(name, b);
  return b;
}
inline Buffer device_lookup(const std::string &name, int) {
  return buffers.at(name);
}
inline bool data_exists(const std::string &name) {
  auto it = counters.find(name);
  return it != counters.end() && it->second > 0;
}
inline void data_acquire(const std::string &name) { counters[name]++; }
inline void data_release(const std::string &name) {
  auto it = counters.find(name);
  if (it != counters.end() && it->second > 0) it->second--;
}
inline void device_copy(Device &dev, Buffer &src, Buffer &dst) {
  (void)dev; (void)src; (void)dst;  // device-local DMA
}
} // namespace ftn_rv

|}

let rv_setup image =
  Fmt.str
    {|  // RISC-V accelerator setup: map the device, load the kernel image.
  ftn_rv::Device dev;
  dev.load_image("%s");

|}
    image

let opencl_setup xclbin =
  Fmt.str
    {|  // OpenCL setup: platform, device, program from the FPGA bitstream.
  std::vector<cl::Platform> platforms;
  cl::Platform::get(&platforms);
  std::vector<cl::Device> devices;
  platforms.at(0).getDevices(CL_DEVICE_TYPE_ACCELERATOR, &devices);
  cl::Device device = devices.at(0);
  cl::Context context(device);
  cl::CommandQueue queue(context, device,
                         CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE);
  std::ifstream bin_file("%s", std::ifstream::binary);
  std::vector<unsigned char> bin(std::istreambuf_iterator<char>(bin_file), {});
  cl::Program::Binaries bins{{bin.data(), bin.size()}};
  cl::Program program(context, {device}, bins);

|}
    xclbin

(* Emit the whole host program from the host module's main function. *)
let emit_module ?(target = Opencl) ?(xclbin = "kernel.xclbin") host =
  let main =
    match
      List.find_opt
        (fun op ->
          Func_d.is_func op
          && (Op.bool_attr op "ftn.main" = Some true)
          && Func_d.has_body op)
        (Op.module_body host)
    with
    | Some f -> f
    | None -> raise (Cpp_error "host module has no main program")
  in
  let ctx =
    {
      buf = Buffer.create 4096;
      target;
      indent = 1;
      exprs = Hashtbl.create 64;
      buffers = Hashtbl.create 16;
      event_count = 0;
    }
  in
  emit_ops ctx
    (List.filter
       (fun o -> not (Func_d.is_return o))
       (Func_d.body main));
  line ctx "return 0;";
  let prelude, setup =
    match target with
    | Opencl -> (prelude, opencl_setup xclbin)
    | Rv -> (rv_prelude, rv_setup xclbin)
  in
  prelude ^ "int main() {\n" ^ setup ^ Buffer.contents ctx.buf ^ "}\n"
