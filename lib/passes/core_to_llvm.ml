(* Core dialects -> llvm dialect (the step mlir-opt performs in the paper's
   flow). Structured control flow is flattened into CFG form with block
   arguments as phi nodes; memrefs become pointers with explicit row-major
   index linearisation; index values widen to i64; math ops become libm
   calls. Applied to the device module before LLVM-IR emission. *)

open Ftn_ir
open Ftn_dialects

exception Unsupported of string

let rec convert_ty ty =
  match ty with
  | Types.Index -> Types.I64
  | Types.Memref { elt; _ } -> Types.Ptr (convert_ty elt)
  | Types.Func (args, results) ->
    Types.Func (List.map convert_ty args, List.map convert_ty results)
  | other -> other

type fctx = {
  b : Builder.t;
  vmap : (int, Value.t) Hashtbl.t;  (** old value id -> new value *)
  old_ty : (int, Types.t) Hashtbl.t;  (** old value id -> old type *)
  mutable finished : Op.block list;  (** completed blocks, reversed *)
  mutable cur_label : string;
  mutable cur_args : Value.t list;
  mutable cur_ops : Op.t list;  (** reversed *)
  mutable label_counter : int;
  mutable math_decls : (string * Types.t list * Types.t) list;
}

let fresh_label ctx prefix =
  ctx.label_counter <- ctx.label_counter + 1;
  Fmt.str "%s%d" prefix ctx.label_counter

let emit ctx op = ctx.cur_ops <- op :: ctx.cur_ops

let emit_get ctx op =
  emit ctx op;
  Op.result1 op

(* Close the current block with terminator [term] (already emitted by the
   caller) and open a new one. *)
let start_block ctx label args =
  ctx.finished <-
    { Op.label = ctx.cur_label; args = ctx.cur_args; body = List.rev ctx.cur_ops }
    :: ctx.finished;
  ctx.cur_label <- label;
  ctx.cur_args <- args;
  ctx.cur_ops <- []

let map_value ctx v =
  match Hashtbl.find_opt ctx.vmap (Value.id v) with
  | Some v' -> v'
  | None ->
    raise
      (Unsupported (Fmt.str "value %%%d not mapped during llvm conversion" (Value.id v)))

let bind ctx old_v new_v =
  Hashtbl.replace ctx.vmap (Value.id old_v) new_v;
  Hashtbl.replace ctx.old_ty (Value.id old_v) (Value.ty old_v)

let fresh_for ctx old_v =
  let v = Builder.fresh ctx.b (convert_ty (Value.ty old_v)) in
  bind ctx old_v v;
  v

let const_i64 ctx n =
  emit_get ctx (Llvm_d.constant ctx.b (Attr.Int (n, Types.I64)) Types.I64)

(* Row-major linearisation of [indices] (new, i64) for the old memref type. *)
let linearize ctx old_mr_ty indices =
  match old_mr_ty with
  | Types.Memref { shape = []; _ } -> const_i64 ctx 0
  | Types.Memref { shape = [ _ ]; _ } -> (
    match indices with
    | [ i ] -> i
    | _ -> raise (Unsupported "rank mismatch in memref access"))
  | Types.Memref { shape; _ } ->
    let dims =
      List.map
        (function
          | Types.Static n -> n
          | Types.Dynamic ->
            raise
              (Unsupported
                 "dynamic multi-dimensional memrefs cannot be lowered to llvm"))
        shape
    in
    let rec go acc dims indices =
      match (dims, indices) with
      | [], [] -> acc
      | d :: dims, i :: indices ->
        let dv = const_i64 ctx d in
        let scaled = emit_get ctx (Llvm_d.binop ctx.b "mul" acc dv) in
        let acc = emit_get ctx (Llvm_d.binop ctx.b "add" scaled i) in
        go acc dims indices
      | _ -> raise (Unsupported "rank mismatch in memref access")
    in
    (match (dims, indices) with
    | _ :: rest_dims, first :: rest_idx -> go first rest_dims rest_idx
    | _ -> raise (Unsupported "rank mismatch in memref access"))
  | _ -> raise (Unsupported "memref access on non-memref value")

let math_callee ctx name ty =
  (* libm's name: the op's, but for fabs and pow *)
  let base =
    match name with
    | "math.absf" -> "fabs"
    | "math.powf" -> "pow"
    | _ -> String.sub name 5 (String.length name - 5)
  in
  let callee, arg_ty =
    match ty with
    | Types.F32 -> (base ^ "f", Types.F32)
    | _ -> (base, Types.F64)
  in
  let arity = if String.equal base "pow" then 2 else 1 in
  let sig_ = (callee, List.init arity (fun _ -> arg_ty), arg_ty) in
  if not (List.mem sig_ ctx.math_decls) then
    ctx.math_decls <- sig_ :: ctx.math_decls;
  callee

(* An arith binop is one LLVM instruction, or for min/max a compare
   ([icmp]/[fcmp] by the predicate that picks the lhs) feeding a select. *)
let instr name ctx _cmp a c = emit_get ctx (Llvm_d.binop ctx.b name a c)

let select_on pred ctx cmp a c =
  let cond = emit_get ctx (cmp ctx.b pred a c) in
  emit_get ctx
    (Builder.op1 ctx.b "llvm.select" ~operands:[ cond; a; c ] (Value.ty a))

let int_binop_llvm : Arith.int_binop -> _ = function
  | Addi -> instr "add"
  | Subi -> instr "sub"
  | Muli -> instr "mul"
  | Divsi -> instr "sdiv"
  | Remsi -> instr "srem"
  | Andi -> instr "and"
  | Ori -> instr "or"
  | Xori -> instr "xor"
  | Maxsi -> select_on "sgt"
  | Minsi -> select_on "slt"

let float_binop_llvm : Arith.float_binop -> _ = function
  | Addf -> instr "fadd"
  | Subf -> instr "fsub"
  | Mulf -> instr "fmul"
  | Divf -> instr "fdiv"
  | Maximumf -> select_on "ogt"
  | Minimumf -> select_on "olt"

(* The LLVM cast instruction; [None] for the integer casts, which sign
   extend, truncate or vanish by width. *)
let cast_llvm : Arith.cast -> string option = function
  | Sitofp -> Some "sitofp"
  | Fptosi -> Some "fptosi"
  | Extf -> Some "fpext"
  | Truncf -> Some "fptrunc"
  | Extui -> Some "zext"
  | Index_cast | Extsi | Trunci -> None

let rec emit_ops ctx ops = List.iter (emit_op ctx) ops

and emit_op ctx op =
  (* Attach the op's source location to unsupported-construct failures so
     the driver can point at the offending source line. *)
  try emit_op_raw ctx op
  with Unsupported msg when Ftn_diag.Loc.is_known (Op.loc op) ->
    raise
      (Ftn_diag.Diag.Diag_failure
         [
           Ftn_diag.Diag.error ~loc:(Op.loc op)
             (Fmt.str "in llvm conversion of '%s': %s" (Op.name op) msg);
         ])

and emit_op_raw ctx op =
  match Arith.kind op with
  | Some k -> emit_arith ctx op k
  | None -> emit_other ctx op

and emit_arith ctx op k =
  let name = Op.name op in
  let r = Op.result1 op in
  let lower f =
    bind ctx r (f (List.map (map_value ctx) (Op.operands op)))
  in
  let binop cmp how =
    lower (function
      | [ a; c ] -> how ctx cmp a c
      | _ -> raise (Unsupported name))
  in
  let compare cmp =
    lower (function
      | [ a; c ] ->
        let pred = Option.value ~default:"eq" (Op.string_attr op "predicate") in
        emit_get ctx (cmp ctx.b pred a c)
      | _ -> raise (Unsupported name))
  in
  match k with
  | Arith.Constant ->
    let value =
      match Op.find_attr op "value" with
      | Some (Attr.Int (n, Types.Index)) -> Attr.Int (n, Types.I64)
      | Some a -> a
      | None -> raise (Unsupported "constant without value")
    in
    bind ctx r
      (emit_get ctx (Llvm_d.constant ctx.b value (convert_ty (Value.ty r))))
  | Arith.Int_binop o -> binop Llvm_d.icmp (int_binop_llvm o)
  | Arith.Float_binop o -> binop Llvm_d.fcmp (float_binop_llvm o)
  | Arith.Negf ->
    lower (function
      | [ a ] -> emit_get ctx (Llvm_d.cast ctx.b "fneg" a (Value.ty a))
      | _ -> raise (Unsupported name))
  | Arith.Cmpi -> compare Llvm_d.icmp
  | Arith.Cmpf -> compare Llvm_d.fcmp
  | Arith.Select ->
    lower (function
      | [ c; t; f ] ->
        emit_get ctx
          (Builder.op1 ctx.b "llvm.select" ~operands:[ c; t; f ] (Value.ty t))
      | _ -> raise (Unsupported name))
  | Arith.Cast c ->
    lower (function
      | [ a ] -> (
        let dst_ty = convert_ty (Value.ty r) in
        match cast_llvm c with
        | Some instr -> emit_get ctx (Llvm_d.cast ctx.b instr a dst_ty)
        | None ->
          let src_w = Types.bitwidth (Value.ty a) in
          let dst_w = Types.bitwidth dst_ty in
          if src_w = dst_w then a
          else
            emit_get ctx
              (Llvm_d.cast ctx.b (if src_w < dst_w then "sext" else "trunc") a
                 dst_ty))
      | _ -> raise (Unsupported name))

and emit_other ctx op =
  let name = Op.name op in
  let mapped () = List.map (map_value ctx) (Op.operands op) in
  match name with
  | "memref.alloca" | "memref.alloc" -> (
    match Value.ty (Op.result1 op) with
    | Types.Memref mi ->
      let count =
        try Types.memref_num_elements mi
        with Invalid_argument _ ->
          raise (Unsupported "dynamic alloca on the device")
      in
      let n = const_i64 ctx (max count 1) in
      let r = emit_get ctx (Llvm_d.alloca ctx.b ~count:n (convert_ty mi.Types.elt)) in
      bind ctx (Op.result1 op) r
    | _ -> raise (Unsupported "alloca of non-memref"))
  | "memref.load" -> (
    match Op.operands op with
    | mr :: indices ->
      let base = map_value ctx mr in
      let idx = List.map (map_value ctx) indices in
      let linear = linearize ctx (Value.ty mr) idx in
      let elt_ty = convert_ty (Value.ty (Op.result1 op)) in
      let gep =
        emit_get ctx
          (Llvm_d.getelementptr ctx.b ~base ~indices:[ linear ] ~elem_ty:elt_ty)
      in
      bind ctx (Op.result1 op) (emit_get ctx (Llvm_d.load ctx.b gep elt_ty))
    | [] -> raise (Unsupported "memref.load without operands"))
  | "memref.store" -> (
    match Op.operands op with
    | value :: mr :: indices ->
      let v = map_value ctx value in
      let base = map_value ctx mr in
      let idx = List.map (map_value ctx) indices in
      let linear = linearize ctx (Value.ty mr) idx in
      let elt_ty = convert_ty (Value.ty value) in
      let gep =
        emit_get ctx
          (Llvm_d.getelementptr ctx.b ~base ~indices:[ linear ] ~elem_ty:elt_ty)
      in
      emit ctx (Llvm_d.store ~value:v ~ptr:gep)
    | _ -> raise (Unsupported "memref.store without operands"))
  | "math.sqrt" | "math.exp" | "math.log" | "math.sin" | "math.cos"
  | "math.tanh" | "math.absf" | "math.powf" -> (
    match mapped () with
    | args ->
      let ty = convert_ty (Value.ty (Op.result1 op)) in
      let callee = math_callee ctx name ty in
      let call = Llvm_d.call ctx.b ~callee ~operands:args ~result_tys:[ ty ] in
      emit ctx call;
      bind ctx (Op.result1 op) (Op.result1 call))
  | "func.call" ->
    let callee = Option.value ~default:"f" (Op.symbol_attr op "callee") in
    let call =
      Llvm_d.call ctx.b ~callee ~operands:(mapped ())
        ~result_tys:(List.map (fun r -> convert_ty (Value.ty r)) (Op.results op))
    in
    let call = { call with Op.attrs = call.Op.attrs @ List.remove_assoc "callee" (Op.attrs op) } in
    emit ctx call;
    List.iter2 (bind ctx) (Op.results op) (Op.results call)
  | "func.return" -> emit ctx (Llvm_d.return ~operands:(mapped ()) ())
  | "scf.for" -> emit_for ctx op
  | "scf.if" -> emit_if ctx op
  | "scf.yield" ->
    raise (Unsupported "unexpected scf.yield outside structured op")
  | other -> raise (Unsupported ("cannot lower " ^ other ^ " to llvm"))

and emit_for ctx op =
  match Scf.for_parts op with
  | None -> raise (Unsupported "malformed scf.for")
  | Some parts ->
    let lb = map_value ctx parts.Scf.lb in
    let ub = map_value ctx parts.Scf.ub in
    let step = map_value ctx parts.Scf.step in
    let inits = List.map (map_value ctx) parts.Scf.iter_inits in
    let cond_l = fresh_label ctx "for_cond" in
    let body_l = fresh_label ctx "for_body" in
    let exit_l = fresh_label ctx "for_exit" in
    emit ctx (Llvm_d.br ~dest:cond_l ~operands:(lb :: inits) ());
    (* condition block: args are iv + iter values *)
    let iv = Builder.fresh ctx.b Types.I64 in
    let iters =
      List.map (fun v -> Builder.fresh ctx.b (Value.ty v)) inits
    in
    start_block ctx cond_l (iv :: iters);
    bind ctx parts.Scf.induction iv;
    List.iter2 (bind ctx) parts.Scf.iter_args iters;
    let cmp = emit_get ctx (Llvm_d.icmp ctx.b "slt" iv ub) in
    emit ctx
      (Llvm_d.cond_br ~cond:cmp ~true_dest:body_l ~false_dest:exit_l ());
    start_block ctx body_l [];
    (* body ops; its scf.yield feeds the back edge *)
    let body, yield =
      let rec split acc = function
        | [ last ] when Scf.is_yield last -> (List.rev acc, Some last)
        | x :: rest -> split (x :: acc) rest
        | [] -> (List.rev acc, None)
      in
      split [] parts.Scf.body
    in
    emit_ops ctx body;
    let yielded =
      match yield with
      | Some y -> List.map (map_value ctx) (Op.operands y)
      | None -> []
    in
    let next = emit_get ctx (Llvm_d.binop ctx.b "add" iv step) in
    emit ctx (Llvm_d.br ~dest:cond_l ~operands:(next :: yielded) ());
    (* exit block: results are the iter values at loop end *)
    let result_args =
      List.map (fun r -> Builder.fresh ctx.b (convert_ty (Value.ty r))) (Op.results op)
    in
    (* pass iter values to exit block through its args *)
    start_block ctx exit_l result_args;
    List.iter2 (bind ctx) (Op.results op) result_args;
    (* patch: the cond_br above targets exit with no operands; when the loop
       carries values we must route them. Rebuild the condition block's
       terminator operands. *)
    if result_args <> [] then begin
      (* find the just-finished cond block and extend its cond_br *)
      match ctx.finished with
      | body_blk :: cond_blk :: rest when String.equal cond_blk.Op.label cond_l ->
        let fixed_body =
          List.map
            (fun o ->
              if Llvm_d.is_cond_br o then
                { o with Op.operands = Op.operands o @ iters }
              else o)
            cond_blk.Op.body
        in
        ctx.finished <- body_blk :: { cond_blk with Op.body = fixed_body } :: rest
      | _ -> ()
    end

and emit_if ctx op =
  let cond = map_value ctx (List.hd (Op.operands op)) in
  let then_l = fresh_label ctx "if_then" in
  let else_l = fresh_label ctx "if_else" in
  let merge_l = fresh_label ctx "if_merge" in
  let has_else = List.length (Op.regions op) > 1 in
  emit ctx
    (Llvm_d.cond_br ~cond ~true_dest:then_l
       ~false_dest:(if has_else then else_l else merge_l)
       ());
  let emit_branch label ops =
    start_block ctx label [];
    let body, yield =
      let rec split acc = function
        | [ last ] when Scf.is_yield last -> (List.rev acc, Some last)
        | x :: rest -> split (x :: acc) rest
        | [] -> (List.rev acc, None)
      in
      split [] ops
    in
    emit_ops ctx body;
    let yielded =
      match yield with
      | Some y -> List.map (map_value ctx) (Op.operands y)
      | None -> []
    in
    emit ctx (Llvm_d.br ~dest:merge_l ~operands:yielded ())
  in
  emit_branch then_l (Op.region_body op 0);
  if has_else then emit_branch else_l (Op.region_body op 1);
  let result_args =
    List.map
      (fun r -> Builder.fresh ctx.b (convert_ty (Value.ty r)))
      (Op.results op)
  in
  start_block ctx merge_l result_args;
  List.iter2 (bind ctx) (Op.results op) result_args

let convert_func b fn =
  match Op.regions fn with
  | [] ->
    (* declaration *)
    let fn_ty =
      match Func_d.func_type fn with
      | Some (args, results) ->
        Types.Func (List.map convert_ty args, List.map convert_ty results)
      | None -> Types.Func ([], [])
    in
    Llvm_d.func_decl
      ~sym_name:(Option.value ~default:"f" (Func_d.func_name fn))
      ~fn_ty ()
  | _ ->
    let params = Func_d.params fn in
    let ctx =
      {
        b;
        vmap = Hashtbl.create 64;
        old_ty = Hashtbl.create 64;
        finished = [];
        cur_label = "entry";
        cur_args = [];
        cur_ops = [];
        label_counter = 0;
        math_decls = [];
      }
    in
    let new_params = List.map (fresh_for ctx) params in
    ctx.cur_args <- new_params;
    emit_ops ctx (Func_d.body fn);
    (* flush the final block *)
    ctx.finished <-
      { Op.label = ctx.cur_label; args = ctx.cur_args; body = List.rev ctx.cur_ops }
      :: ctx.finished;
    let blocks = List.rev ctx.finished in
    let fn_ty =
      Types.Func (List.map Value.ty new_params, [])
    in
    let f =
      Llvm_d.func
        ~sym_name:(Option.value ~default:"f" (Func_d.func_name fn))
        ~blocks ~fn_ty ()
    in
    (* record math declarations on the op for the module pass to collect *)
    List.fold_left
      (fun f (callee, arg_tys, ret) ->
        Op.set_attr f ("math_decl_" ^ callee)
          (Attr.Type (Types.Func (arg_tys, [ ret ]))))
      f ctx.math_decls

(* Conversion applies to functions directly inside the module being
   lowered (matching mlir-opt's behaviour of leaving nested modules to
   their own pass applications). *)
let func_to_llvm =
  Rewrite.pattern ~roots:[ "func.func" ] "func-to-llvm" (fun ctx fn ->
      match Rewrite.parents ctx with
      | [ m ] when Op.is_module m ->
        Some (Rewrite.replace_with [ convert_func (Rewrite.builder ctx) fn ])
      | _ -> None)

(* the pattern set is options-independent: compile its root index once *)
let compiled = Rewrite.compile [ func_to_llvm ]

let run m =
  let m = Rewrite.apply_compiled compiled m in
  (* hoist math declarations recorded on converted functions, and restore
     the module layout: non-function ops, then declarations, then the
     converted functions *)
  let funcs, others =
    List.partition
      (fun o -> String.equal (Op.name o) "llvm.func")
      (Op.module_body m)
  in
  let decls = ref [] in
  let funcs =
    List.map
      (fun f ->
        let math_attrs =
          List.filter
            (fun (k, _) ->
              String.length k > 10 && String.sub k 0 10 = "math_decl_")
            (Op.attrs f)
        in
        List.iter
          (fun (k, v) ->
            let callee = String.sub k 10 (String.length k - 10) in
            match v with
            | Attr.Type fn_ty ->
              if
                not
                  (List.exists
                     (fun d -> Op.symbol_attr d "sym_name" = Some callee)
                     !decls)
              then decls := Llvm_d.func_decl ~sym_name:callee ~fn_ty () :: !decls
            | _ -> ())
          math_attrs;
        List.fold_left (fun f (k, _) -> Op.remove_attr f k) f math_attrs)
      funcs
  in
  Op.with_module_body m (others @ List.rev !decls @ funcs)

let pass = Pass.make "convert-to-llvm" run
