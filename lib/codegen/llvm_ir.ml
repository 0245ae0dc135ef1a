(* LLVM-IR text emission from the llvm-dialect module. Emits typed-pointer
   IR (the format AMD's LLVM-7-based HLS backend consumes). Block arguments
   are converted to phi nodes by collecting the incoming edges of every
   branch. Constants fold inline into operand positions, as LLVM requires. *)

open Ftn_ir
open Ftn_dialects

exception Emit_error of string

let rec llvm_type ty =
  match ty with
  | Types.I1 -> "i1"
  | Types.I8 -> "i8"
  | Types.I16 -> "i16"
  | Types.I32 -> "i32"
  | Types.I64 | Types.Index -> "i64"
  | Types.F16 -> "half"
  | Types.F32 -> "float"
  | Types.F64 -> "double"
  | Types.Ptr elt -> llvm_type elt ^ "*"
  | other -> raise (Emit_error ("type has no LLVM form: " ^ Types.to_string other))

(* LLVM reads a decimal constant only when it is exact for the type, and
   the hexadecimal (double) form of a [float] constant only when it holds
   an f32 value: round to f32 first. *)
let float_lit ty x =
  let x = Types.round_to ty x in
  match Attr.short_decimal x with
  | Some d -> d
  | None -> Fmt.str "0x%LX" (Int64.bits_of_float x)

type fn_ctx = {
  names : (int, string) Hashtbl.t;  (** value id -> printed operand *)
  buf : Buffer.t;
  mutable tmp : int;
}

let operand ctx v =
  match Hashtbl.find_opt ctx.names (Value.id v) with
  | Some s -> s
  | None -> Fmt.str "%%v%d" (Value.id v)

let typed_operand ctx v = Fmt.str "%s %s" (llvm_type (Value.ty v)) (operand ctx v)

let def ctx v =
  let s = Fmt.str "%%v%d" (Value.id v) in
  Hashtbl.replace ctx.names (Value.id v) s;
  s

let line ctx fmt = Fmt.kstr (fun s -> Buffer.add_string ctx.buf ("  " ^ s ^ "\n")) fmt

(* --- phi construction: map block label -> (pred label, incoming values) --- *)

let collect_edges blocks =
  let edges : (string, (string * Value.t list) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let add dest edge =
    Hashtbl.replace edges dest
      (edge :: Option.value ~default:[] (Hashtbl.find_opt edges dest))
  in
  List.iter
    (fun blk ->
      List.iter
        (fun op ->
          if Llvm_d.is_br op then
            match Op.string_attr op "dest" with
            | Some dest -> add dest (blk.Op.label, Op.operands op)
            | None -> ()
          else if Llvm_d.is_cond_br op then
            match Llvm_d.cond_br_parts op with
            | Some (_c, t_dest, t_ops, f_dest, f_ops) ->
              add t_dest (blk.Op.label, t_ops);
              add f_dest (blk.Op.label, f_ops)
            | None -> ())
        blk.Op.body)
    blocks;
  edges

(* --- instruction emission --- *)

(* An arith or cast instruction's mnemonic: its op name without "llvm.". *)
let mnemonic name = String.sub name 5 (String.length name - 5)

let emit_instruction ctx op =
  let name = Op.name op in
  match name with
  | "llvm.mlir.constant" -> (
    (* no instruction: the constant text substitutes for the value *)
    let r = Op.result1 op in
    match Op.find_attr op "value" with
    | Some (Attr.Int (n, _)) ->
      Hashtbl.replace ctx.names (Value.id r) (string_of_int n)
    | Some (Attr.Float (x, _)) ->
      Hashtbl.replace ctx.names (Value.id r) (float_lit (Value.ty r) x)
    | Some (Attr.Bool b) ->
      Hashtbl.replace ctx.names (Value.id r) (if b then "1" else "0")
    | _ -> raise (Emit_error "constant without value"))
  | "llvm.fneg" -> (
    (* LLVM 7 has no fneg instruction: emit the fsub identity instead *)
    match Op.operands op with
    | [ a ] ->
      line ctx "%s = fsub %s -0.000000e+00, %s"
        (def ctx (Op.result1 op))
        (llvm_type (Value.ty a))
        (operand ctx a)
    | _ -> raise (Emit_error "fneg expects one operand"))
  | "llvm.icmp" | "llvm.fcmp" -> (
    match Op.operands op with
    | [ a; b ] ->
      line ctx "%s = %s %s %s %s, %s"
        (def ctx (Op.result1 op))
        (if name = "llvm.icmp" then "icmp" else "fcmp")
        (Option.value ~default:"eq" (Op.string_attr op "predicate"))
        (llvm_type (Value.ty a))
        (operand ctx a) (operand ctx b)
    | _ -> raise (Emit_error "cmp expects two operands"))
  | "llvm.select" -> (
    match Op.operands op with
    | [ c; t; f ] ->
      line ctx "%s = select i1 %s, %s, %s"
        (def ctx (Op.result1 op))
        (operand ctx c) (typed_operand ctx t) (typed_operand ctx f)
    | _ -> raise (Emit_error "select expects three operands"))
  | "llvm.getelementptr" -> (
    match Op.operands op with
    | base :: indices ->
      let elem =
        match Op.find_attr op "elem_type" with
        | Some (Attr.Type t) -> llvm_type t
        | _ -> raise (Emit_error "getelementptr without elem_type")
      in
      line ctx "%s = getelementptr %s, %s%s"
        (def ctx (Op.result1 op))
        elem (typed_operand ctx base)
        (String.concat ""
           (List.map (fun i -> ", " ^ typed_operand ctx i) indices))
    | [] -> raise (Emit_error "getelementptr without base"))
  | "llvm.load" -> (
    match Op.operands op with
    | [ p ] ->
      let ty = llvm_type (Value.ty (Op.result1 op)) in
      line ctx "%s = load %s, %s, align 4"
        (def ctx (Op.result1 op))
        ty (typed_operand ctx p)
    | _ -> raise (Emit_error "load expects one operand"))
  | "llvm.store" -> (
    match Op.operands op with
    | [ v; p ] ->
      line ctx "store %s, %s, align 4" (typed_operand ctx v)
        (typed_operand ctx p)
    | _ -> raise (Emit_error "store expects two operands"))
  | "llvm.alloca" -> (
    match Op.operands op with
    | [ n ] ->
      let elem =
        match Op.find_attr op "elem_type" with
        | Some (Attr.Type t) -> llvm_type t
        | _ -> raise (Emit_error "alloca without elem_type")
      in
      line ctx "%s = alloca %s, %s"
        (def ctx (Op.result1 op))
        elem (typed_operand ctx n)
    | _ -> raise (Emit_error "alloca expects a count"))
  | "llvm.call" -> (
    let callee = Option.value ~default:"f" (Op.symbol_attr op "callee") in
    let args =
      String.concat ", " (List.map (typed_operand ctx) (Op.operands op))
    in
    let variadic = Op.bool_attr op "variadic" = Some true in
    let call_sig = if variadic then "void (...) " else "void " in
    match Op.results op with
    | [] ->
      if variadic then
        line ctx "call %s@%s(%s)" call_sig callee args
      else line ctx "call void @%s(%s)" callee args
    | [ r ] ->
      line ctx "%s = call %s @%s(%s)" (def ctx r)
        (llvm_type (Value.ty r))
        callee args
    | _ -> raise (Emit_error "multi-result call"))
  | "llvm.br" -> (
    match Op.string_attr op "dest" with
    | Some dest -> line ctx "br label %%%s" dest
    | None -> raise (Emit_error "br without dest"))
  | "llvm.cond_br" -> (
    match Llvm_d.cond_br_parts op with
    | Some (c, t, _, f, _) ->
      line ctx "br i1 %s, label %%%s, label %%%s" (operand ctx c) t f
    | None -> raise (Emit_error "malformed cond_br"))
  | "llvm.return" -> (
    match Op.operands op with
    | [] -> line ctx "ret void"
    | [ v ] -> line ctx "ret %s" (typed_operand ctx v)
    | _ -> raise (Emit_error "multi-value return"))
  | _ when List.mem name Llvm_d.arith_op_names -> (
    match Op.operands op with
    | [ a; b ] ->
      let m = mnemonic name in
      (* float arithmetic may contract into fused operations *)
      let fast = if m.[0] = 'f' then "contract " else "" in
      line ctx "%s = %s %s%s %s, %s"
        (def ctx (Op.result1 op))
        m fast
        (llvm_type (Value.ty a))
        (operand ctx a) (operand ctx b)
    | _ -> raise (Emit_error (name ^ " expects two operands")))
  | _ when List.mem name Llvm_d.cast_op_names -> (
    match Op.operands op with
    | [ a ] ->
      line ctx "%s = %s %s to %s"
        (def ctx (Op.result1 op))
        (mnemonic name) (typed_operand ctx a)
        (llvm_type (Value.ty (Op.result1 op)))
    | _ -> raise (Emit_error (name ^ " expects one operand")))
  | other -> raise (Emit_error ("cannot emit " ^ other))

let emit_function buf fn =
  let name = Option.value ~default:"f" (Op.symbol_attr fn "sym_name") in
  let fn_ty =
    match Op.find_attr fn "function_type" with
    | Some (Attr.Type (Types.Func (args, results))) -> (args, results)
    | _ -> ([], [])
  in
  let ret_ty =
    match snd fn_ty with [] -> "void" | [ t ] -> llvm_type t | _ -> "void"
  in
  match Op.regions fn with
  | [] ->
    let variadic = Op.bool_attr fn "variadic" = Some true in
    let params =
      if variadic then "..."
      else String.concat ", " (List.map llvm_type (fst fn_ty))
    in
    Buffer.add_string buf (Fmt.str "declare %s @%s(%s)\n\n" ret_ty name params)
  | [ blocks ] ->
    let ctx = { names = Hashtbl.create 64; buf; tmp = 0 } in
    ignore ctx.tmp;
    let entry_args =
      match blocks with
      | b :: _ -> b.Op.args
      | [] -> []
    in
    let params =
      String.concat ", "
        (List.map
           (fun v -> Fmt.str "%s %s" (llvm_type (Value.ty v)) (def ctx v))
           entry_args)
    in
    Buffer.add_string buf (Fmt.str "define %s @%s(%s) {\n" ret_ty name params);
    let edges = collect_edges blocks in
    List.iteri
      (fun i blk ->
        Buffer.add_string buf (Fmt.str "%s:\n" blk.Op.label);
        (* phi nodes for non-entry block args *)
        if i > 0 then begin
          let incoming =
            Option.value ~default:[] (Hashtbl.find_opt edges blk.Op.label)
          in
          List.iteri
            (fun arg_i arg ->
              let parts =
                List.filter_map
                  (fun (pred, vals) ->
                    match List.nth_opt vals arg_i with
                    | Some v ->
                      Some (Fmt.str "[ %s, %%%s ]" (operand ctx v) pred)
                    | None -> None)
                  incoming
              in
              if parts <> [] then
                line ctx "%s = phi %s %s" (def ctx arg)
                  (llvm_type (Value.ty arg))
                  (String.concat ", " parts))
            blk.Op.args
        end;
        List.iter (emit_instruction ctx) blk.Op.body)
      blocks;
    Buffer.add_string buf "}\n\n"
  | _ -> raise (Emit_error "llvm.func with multiple regions")

let target_header =
  "; ModuleID = 'ftn-fpga-kernel'\n\
   source_filename = \"ftn-fpga-kernel\"\n\
   target datalayout = \
   \"e-m:e-i64:64-i128:128-i256:256-i512:512-i1024:1024-i2048:2048-i4096:4096-n8:16:32:64-S128-v16:16-v24:32-v32:32-v48:64-v96:128-v192:256-v256:256-v512:512-v1024:1024\"\n\
   target triple = \"fpga64-xilinx-none\"\n\n"

let rv_target_header =
  "; ModuleID = 'ftn-rv-kernel'\n\
   source_filename = \"ftn-rv-kernel\"\n\
   target datalayout = \"e-m:e-p:64:64-i64:64-i128:128-n32:64-S128\"\n\
   target triple = \"riscv64-unknown-elf\"\n\n"

let emit_module ?(header = target_header) m =
  if not (Op.is_module m) then raise (Emit_error "expected builtin.module");
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  List.iter
    (fun op ->
      if String.equal (Op.name op) "llvm.func" then emit_function buf op)
    (Op.module_body m);
  Buffer.contents buf
