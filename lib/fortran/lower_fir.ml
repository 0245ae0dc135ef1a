(* Lowering from the checked Fortran AST into FIR + omp dialect IR, the
   stage Flang performs in the paper's Figure 1.

   Storage model: every Fortran variable lives in a memref —
     - scalars in rank-0 memrefs,
     - arrays in memrefs whose dimensions are the *reverse* of the Fortran
       shape so that column-major adjacency maps onto the fastest-varying
       (last) memref dimension; subscripts are reversed and shifted to
       0-based accordingly.
   Dummy arguments are passed as memrefs (Fortran by-reference semantics).

   OpenMP: target/target data/enter/exit/update become omp.map_info plus
   the corresponding omp ops, with implicit maps synthesised for variables
   used inside a target region but not explicitly mapped (arrays: tofrom,
   scalars: to) exactly as described in Section 3 of the paper. *)

open Ftn_ir
open Ftn_dialects

exception Lower_error of string * Ftn_diag.Loc.t

let error loc msg = raise (Lower_error (msg, loc))

module Env = Sema.Env

type ctx = {
  b : Builder.t;
  symbols : Sema.symbol Env.t;
  mutable bindings : Value.t Env.t;  (** var name -> storage memref *)
  mutable out : Op.t list;  (** current block, reversed *)
  mutable cur_loc : Ftn_diag.Loc.t;
      (** Source location of the statement being lowered; stamped onto
          every emitted op. *)
}

let emit ctx op = ctx.out <- Op.set_loc op ctx.cur_loc :: ctx.out

let emit_get ctx op =
  emit ctx op;
  Op.result1 op

(* Run [f] with a fresh op buffer; returns the ops it emitted. Bindings
   changes made inside are rolled back. *)
let in_block ctx f =
  let saved_out = ctx.out in
  let saved_bind = ctx.bindings in
  ctx.out <- [];
  f ();
  let ops = List.rev ctx.out in
  ctx.out <- saved_out;
  ctx.bindings <- saved_bind;
  ops

let scalar_type = function
  | Ast.Ty_integer -> Types.I32
  | Ast.Ty_real -> Types.F32
  | Ast.Ty_double -> Types.F64
  | Ast.Ty_logical -> Types.I1

(* Memref type of a symbol's storage (dims reversed, see header). *)
let storage_type sym =
  let elt = scalar_type sym.Sema.sym_type in
  let dims =
    List.rev_map
      (function
        | Sema.Dim_const n -> Types.Static n
        | Sema.Dim_expr _ -> Types.Dynamic)
      sym.Sema.sym_dims
  in
  Types.memref dims elt

let storage ctx loc name =
  match Env.find_opt name ctx.bindings with
  | Some v -> v
  | None -> error loc ("no storage for variable " ^ name)

let symbol ctx loc name =
  match Env.find_opt name ctx.symbols with
  | Some s -> s
  | None -> error loc ("unknown symbol " ^ name)

(* --- conversions --- *)

let convert ctx v ty =
  if Types.equal (Value.ty v) ty then v
  else emit_get ctx (Fir.convert ctx.b v ty)

let to_index ctx v = convert ctx v Types.Index

(* --- expressions --- *)

let rec lower_expr ctx loc e =
  match e with
  | Ast.Int_lit n -> emit_get ctx (Arith.const_i32 ctx.b n)
  | Ast.Real_lit (x, Ast.Ty_double) -> emit_get ctx (Arith.const_f64 ctx.b x)
  | Ast.Real_lit (x, _) -> emit_get ctx (Arith.const_f32 ctx.b x)
  | Ast.Logical_lit v -> emit_get ctx (Arith.const_bool ctx.b v)
  | Ast.Var name -> (
    let sym = symbol ctx loc name in
    match sym.Sema.sym_constant with
    | Some c -> lower_expr ctx loc c
    | None ->
      let st = storage ctx loc name in
      emit_get ctx (Fir.load ctx.b st []))
  | Ast.Index (name, subscripts) ->
    let st = storage ctx loc name in
    let indices = lower_subscripts ctx loc name subscripts in
    emit_get ctx (Fir.load ctx.b st indices)
  | Ast.Binop (op, a, bx) -> lower_binop ctx loc op a bx
  | Ast.Unop (Ast.Neg, a) ->
    let v = lower_expr ctx loc a in
    if Types.is_float (Value.ty v) then emit_get ctx (Arith.negf ctx.b v)
    else
      let zero = emit_get ctx (Arith.const_int ctx.b 0 (Value.ty v)) in
      emit_get ctx (Arith.subi ctx.b zero v)
  | Ast.Unop (Ast.Not, a) ->
    let v = lower_expr ctx loc a in
    let one = emit_get ctx (Arith.const_int ctx.b 1 Types.I1) in
    emit_get ctx (Arith.xori ctx.b v one)
  | Ast.Intrinsic (name, args) -> lower_intrinsic ctx loc name args
  | Ast.User_call (name, ret_ty, args) ->
    let operands = List.map (lower_call_arg ctx loc) args in
    emit_get ctx
      (Fir.call ctx.b ~callee:name ~operands
         ~result_tys:[ scalar_type ret_ty ])

(* Fortran passes arguments by reference: named variables pass their
   storage, other expressions pass a temporary. *)
and lower_call_arg ctx loc a =
  match a with
  | Ast.Var vn when (symbol ctx loc vn).Sema.sym_constant = None ->
    storage ctx loc vn
  | _ ->
    let v = lower_expr ctx loc a in
    let tmp_ty = Types.memref [] (Value.ty v) in
    let tmp = emit_get ctx (Fir.alloca ctx.b ~bindc_name:"tmp" tmp_ty) in
    emit ctx (Fir.store ~value:v ~ref_:tmp []);
    tmp

(* 0-based, order-reversed subscript list for memref access. *)
and lower_subscripts ctx loc name subscripts =
  ignore name;
  let lowered =
    List.map
      (fun e ->
        let v = lower_expr ctx loc e in
        let v = to_index ctx v in
        let one = emit_get ctx (Arith.const_index ctx.b 1) in
        emit_get ctx (Arith.subi ctx.b v one))
      subscripts
  in
  List.rev lowered

and binary_result_type a b =
  let ta = Value.ty a and tb = Value.ty b in
  match (ta, tb) with
  | Types.F64, _ | _, Types.F64 -> Types.F64
  | Types.F32, _ | _, Types.F32 -> Types.F32
  | _ -> ta

and lower_binop ctx loc op a_e b_e =
  let a = lower_expr ctx loc a_e in
  let b = lower_expr ctx loc b_e in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div ->
    let ty = binary_result_type a b in
    let a = convert ctx a ty and b = convert ctx b ty in
    let build =
      if Types.is_float ty then
        match op with
        | Ast.Add -> Arith.addf ctx.b ~fastmath:true
        | Ast.Sub -> Arith.subf ctx.b ~fastmath:true
        | Ast.Mul -> Arith.mulf ctx.b ~fastmath:true
        | Ast.Div -> Arith.divf ctx.b ~fastmath:true
        | _ -> assert false
      else
        match op with
        | Ast.Add -> Arith.addi ctx.b
        | Ast.Sub -> Arith.subi ctx.b
        | Ast.Mul -> Arith.muli ctx.b
        | Ast.Div -> Arith.divsi ctx.b
        | _ -> assert false
    in
    emit_get ctx (build a b)
  | Ast.Pow -> lower_pow ctx loc a b b_e
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let ty = binary_result_type a b in
    let a = convert ctx a ty and b = convert ctx b ty in
    if Types.is_float ty then
      let pred =
        match op with
        | Ast.Eq -> Arith.Oeq
        (* Fortran's /= is true when either operand is NaN. *)
        | Ast.Ne -> Arith.Une
        | Ast.Lt -> Arith.Olt
        | Ast.Le -> Arith.Ole
        | Ast.Gt -> Arith.Ogt
        | Ast.Ge -> Arith.Oge
        | _ -> assert false
      in
      emit_get ctx (Arith.cmpf ctx.b pred a b)
    else
      let pred =
        match op with
        | Ast.Eq -> Arith.Eq
        | Ast.Ne -> Arith.Ne
        | Ast.Lt -> Arith.Slt
        | Ast.Le -> Arith.Sle
        | Ast.Gt -> Arith.Sgt
        | Ast.Ge -> Arith.Sge
        | _ -> assert false
      in
      emit_get ctx (Arith.cmpi ctx.b pred a b)
  | Ast.And -> emit_get ctx (Arith.andi ctx.b a b)
  | Ast.Or -> emit_get ctx (Arith.ori ctx.b a b)

and lower_pow ctx loc base expo expo_ast =
  (* Integer constant exponents expand to multiplications (the common
     Fortran idiom x**2); everything else goes through math.powf. *)
  match expo_ast with
  | Ast.Int_lit n when n >= 1 && n <= 8 ->
    let rec go acc i =
      if i = n then acc
      else
        let acc =
          if Types.is_float (Value.ty base) then
            emit_get ctx (Arith.mulf ctx.b ~fastmath:true acc base)
          else emit_get ctx (Arith.muli ctx.b acc base)
        in
        go acc (i + 1)
    in
    go base 1
  | _ ->
    let fbase =
      if Types.is_float (Value.ty base) then base
      else convert ctx base Types.F32
    in
    let fexpo = convert ctx expo (Value.ty fbase) in
    let r = emit_get ctx (Math_d.powf ctx.b fbase fexpo) in
    ignore loc;
    r

and lower_intrinsic ctx loc name args =
  let unary build =
    match args with
    | [ a ] ->
      let v = lower_expr ctx loc a in
      let v =
        if Types.is_float (Value.ty v) then v else convert ctx v Types.F32
      in
      emit_get ctx (build v)
    | _ -> error loc (name ^ " expects one argument")
  in
  match name with
  | "sqrt" -> unary (Math_d.sqrt ctx.b)
  | "exp" -> unary (Math_d.exp ctx.b)
  | "log" -> unary (Math_d.log ctx.b)
  | "sin" -> unary (Math_d.sin ctx.b)
  | "cos" -> unary (Math_d.cos ctx.b)
  | "tanh" -> unary (Math_d.tanh ctx.b)
  | "abs" -> (
    match args with
    | [ a ] ->
      let v = lower_expr ctx loc a in
      if Types.is_float (Value.ty v) then emit_get ctx (Math_d.absf ctx.b v)
      else begin
        let zero = emit_get ctx (Arith.const_int ctx.b 0 (Value.ty v)) in
        let neg = emit_get ctx (Arith.subi ctx.b zero v) in
        let is_neg = emit_get ctx (Arith.cmpi ctx.b Arith.Slt v zero) in
        emit_get ctx (Arith.select ctx.b is_neg neg v)
      end
    | _ -> error loc "abs expects one argument")
  | "mod" -> (
    match args with
    | [ a; b ] ->
      let va = lower_expr ctx loc a in
      let vb = lower_expr ctx loc b in
      if Types.is_float (Value.ty va) || Types.is_float (Value.ty vb) then
        error loc "mod on reals is not supported"
      else emit_get ctx (Arith.remsi ctx.b va vb)
    | _ -> error loc "mod expects two arguments")
  | "max" | "min" -> (
    match List.map (lower_expr ctx loc) args with
    | [] | [ _ ] -> error loc (name ^ " expects at least two arguments")
    | v0 :: rest ->
      let ty =
        List.fold_left
          (fun acc v -> binary_result_type_v acc (Value.ty v))
          (Value.ty v0) rest
      in
      let fold acc v =
        let acc = convert ctx acc ty and v = convert ctx v ty in
        if Types.is_float ty then
          if name = "max" then emit_get ctx (Arith.maxf ctx.b acc v)
          else emit_get ctx (Arith.minf ctx.b acc v)
        else if name = "max" then emit_get ctx (Arith.maxsi ctx.b acc v)
        else emit_get ctx (Arith.minsi ctx.b acc v)
      in
      List.fold_left fold v0 rest)
  | "real" | "float" -> (
    match args with
    | [ a ] -> convert ctx (lower_expr ctx loc a) Types.F32
    | _ -> error loc "real expects one argument")
  | "dble" -> (
    match args with
    | [ a ] -> convert ctx (lower_expr ctx loc a) Types.F64
    | _ -> error loc "dble expects one argument")
  | "int" | "nint" -> (
    match args with
    | [ a ] -> convert ctx (lower_expr ctx loc a) Types.I32
    | _ -> error loc "int expects one argument")
  | other -> error loc ("intrinsic " ^ other ^ " cannot be lowered")

and binary_result_type_v ta tb =
  match (ta, tb) with
  | Types.F64, _ | _, Types.F64 -> Types.F64
  | Types.F32, _ | _, Types.F32 -> Types.F32
  | _ -> ta

(* --- OpenMP mapping helpers --- *)

let map_kind_to_omp = function
  | Ast.Map_to -> Omp.To
  | Ast.Map_from -> Omp.From
  | Ast.Map_tofrom -> Omp.Tofrom
  | Ast.Map_alloc -> Omp.Alloc

(* Do-loop variables of parallel loops inside [stmts]: private, never
   mapped. *)
let private_loop_vars stmts =
  Ast.fold_stmts
    (fun acc s ->
      match s.Ast.s_kind with
      | Ast.Omp_parallel_do { pd_loop = { do_var; _ }; _ } -> do_var :: acc
      | Ast.Do { do_var; _ } -> do_var :: acc
      | _ -> acc)
    [] stmts
  |> List.sort_uniq String.compare

(* Explicit + implicit mappings for a target construct. Returns
   (name, map_type, implicit) in a deterministic order: explicit clauses
   first, then implicit captures sorted by name. *)
let compute_mappings ctx loc clauses body =
  let explicit =
    List.concat_map
      (function
        | Ast.Cl_map (kind, names) ->
          List.map (fun n -> (n, map_kind_to_omp kind, false)) names
        | _ -> [])
      clauses
  in
  let explicit_names = List.map (fun (n, _, _) -> n) explicit in
  let clause_priv, clause_fpriv = Ast.clause_privacy body clauses in
  let privates = private_loop_vars body @ clause_priv in
  (* Scalars that the region writes — including reduction variables, which
     OpenMP treats as map(tofrom) on a target construct — must copy back;
     read-only scalars default to map(to). *)
  let written = Ast.assigned_scalars body @ Ast.reduction_vars body in
  let implicit =
    Ast.stmts_vars body
    |> List.filter (fun n ->
           (not (List.mem n explicit_names))
           && (not (List.mem n privates))
           && Env.mem n ctx.symbols
           &&
           let s = Env.find n ctx.symbols in
           s.Sema.sym_constant = None)
    |> List.map (fun n ->
           let s = symbol ctx loc n in
           let kind =
             (* firstprivate: by-value copy in, never copied back *)
             if List.mem n clause_fpriv then Omp.To
             else if s.Sema.sym_dims = [] && not (List.mem n written) then
               Omp.To
             else Omp.Tofrom
           in
           (n, kind, true))
  in
  explicit @ implicit

(* Emit omp.map_info (with bounds for arrays) for each mapping; returns
   (name, map result value) pairs. *)
let emit_map_infos ctx loc mappings =
  List.map
    (fun (name, kind, implicit) ->
      let var = storage ctx loc name in
      let bounds =
        match Value.ty var with
        | Types.Memref { shape = []; _ } -> []
        | Types.Memref { shape; _ } ->
          List.map
            (fun d ->
              let extent =
                match d with
                | Types.Static n -> emit_get ctx (Arith.const_index ctx.b n)
                | Types.Dynamic ->
                  (* dynamic extent: runtime dim query *)
                  let zero = emit_get ctx (Arith.const_index ctx.b 0) in
                  emit_get ctx (Memref_d.dim ctx.b var zero)
              in
              let one = emit_get ctx (Arith.const_index ctx.b 1) in
              let upper = emit_get ctx (Arith.subi ctx.b extent one) in
              let zero = emit_get ctx (Arith.const_index ctx.b 0) in
              emit_get ctx (Omp.bounds_info ctx.b ~lower:zero ~upper))
            shape
        | _ -> []
      in
      let v =
        emit_get ctx
          (Omp.map_info ctx.b ~var ~var_name:name ~map_type:kind ~implicit
             ~bounds ())
      in
      (name, v))
    mappings

(* acc.copy_info ops for each mapping (the OpenACC analogue of
   emit_map_infos; copy kinds share the omp map-kind encoding). *)
let emit_copy_infos ctx loc mappings =
  List.map
    (fun (name, kind, implicit) ->
      let var = storage ctx loc name in
      let acc_kind =
        match kind with
        | Omp.To -> Acc.Copyin
        | Omp.From -> Acc.Copyout
        | Omp.Tofrom -> Acc.Copy
        | Omp.Alloc | Omp.Release | Omp.Delete -> Acc.Create
      in
      let v =
        emit_get ctx
          (Acc.copy_info ctx.b ~var ~var_name:name ~kind:acc_kind ~implicit ())
      in
      (name, v))
    mappings

(* --- statements --- *)

let rec lower_stmt ctx stmt =
  let loc = stmt.Ast.s_loc in
  ctx.cur_loc <- loc;
  match stmt.Ast.s_kind with
  | Ast.Assign (lhs, rhs) -> (
    let value = lower_expr ctx loc rhs in
    match lhs with
    | Ast.Var name ->
      let sym = symbol ctx loc name in
      let value = convert ctx value (scalar_type sym.Sema.sym_type) in
      emit ctx (Fir.store ~value ~ref_:(storage ctx loc name) [])
    | Ast.Index (name, subscripts) ->
      let sym = symbol ctx loc name in
      let value = convert ctx value (scalar_type sym.Sema.sym_type) in
      let indices = lower_subscripts ctx loc name subscripts in
      emit ctx (Fir.store ~value ~ref_:(storage ctx loc name) indices)
    | _ -> error loc "invalid assignment target")
  | Ast.Do loop -> lower_do ctx loc loop
  | Ast.Do_while (cond, body) ->
    (* scf.while with no carried values: the condition re-evaluates the
       variables through their storage each round *)
    let while_op =
      Scf.while_ ctx.b ~inits:[]
        ~make_before:(fun _ ->
          in_block ctx (fun () ->
              let c = lower_expr ctx loc cond in
              emit ctx (Scf.condition ~cond:c ~operands:[])))
        ~make_after:(fun _ ->
          in_block ctx (fun () ->
              lower_stmts ctx body;
              emit ctx (Scf.yield ())))
    in
    ctx.cur_loc <- loc;
    emit ctx while_op
  | Ast.If (arms, else_body) -> lower_if ctx loc arms else_body
  | Ast.Call (name, args) ->
    let operands = List.map (lower_call_arg ctx loc) args in
    emit ctx (Fir.call ctx.b ~callee:name ~operands ~result_tys:[])
  | Ast.Print items ->
    List.iter
      (fun item ->
        match item with
        | Ast.Intrinsic ("__str", [ Ast.Var text ]) ->
          emit ctx
            (Op.set_attr
               (Fir.call ctx.b ~callee:"ftn_print_str" ~operands:[]
                  ~result_tys:[])
               "text" (Attr.String text))
        | e ->
          let v = lower_expr ctx loc e in
          let callee =
            match Value.ty v with
            | Types.F32 -> "ftn_print_f32"
            | Types.F64 -> "ftn_print_f64"
            | Types.I1 -> "ftn_print_i1"
            | _ -> "ftn_print_i32"
          in
          emit ctx (Fir.call ctx.b ~callee ~operands:[ v ] ~result_tys:[]))
      items;
    emit ctx
      (Fir.call ctx.b ~callee:"ftn_print_newline" ~operands:[] ~result_tys:[])
  | Ast.Exit_stmt | Ast.Cycle_stmt ->
    error loc "exit/cycle are not supported in this subset"
  | Ast.Omp_target (clauses, body) -> lower_target ctx loc clauses body
  | Ast.Omp_target_data (clauses, body) ->
    let mappings = compute_mappings ctx loc clauses [] in
    (* target data maps only the explicit clauses *)
    let maps = emit_map_infos ctx loc mappings in
    let body_ops = in_block ctx (fun () -> lower_stmts ctx body) in
    ctx.cur_loc <- loc;
    emit ctx
      (Omp.target_data
         ~map_operands:(List.map snd maps)
         (body_ops @ [ Omp.terminator () ]))
  | Ast.Omp_target_enter_data clauses ->
    let maps = emit_map_infos ctx loc (compute_mappings ctx loc clauses []) in
    emit ctx (Omp.target_enter_data ~map_operands:(List.map snd maps))
  | Ast.Omp_target_exit_data clauses ->
    let maps = emit_map_infos ctx loc (compute_mappings ctx loc clauses []) in
    emit ctx (Omp.target_exit_data ~map_operands:(List.map snd maps))
  | Ast.Omp_target_update clauses ->
    let motion, names =
      match clauses with
      | [ Ast.Cl_from names ] -> ("from", names)
      | [ Ast.Cl_to names ] -> ("to", names)
      | _ -> error loc "target update expects a single to(...) or from(...)"
    in
    let kind = if motion = "from" then Omp.From else Omp.To in
    let maps =
      emit_map_infos ctx loc (List.map (fun n -> (n, kind, false)) names)
    in
    emit ctx (Omp.target_update ~motion ~map_operands:(List.map snd maps))
  | Ast.Omp_parallel_do pd -> lower_parallel_do ctx pd
  | Ast.Acc_parallel_loop apl -> lower_acc_parallel_loop ctx apl
  | Ast.Acc_data (clauses, body) ->
    let maps = emit_copy_infos ctx loc (compute_mappings ctx loc clauses []) in
    let body_ops = in_block ctx (fun () -> lower_stmts ctx body) in
    ctx.cur_loc <- loc;
    emit ctx
      (Acc.data
         ~data_operands:(List.map snd maps)
         (body_ops @ [ Acc.terminator () ]))
  | Ast.Acc_enter_data clauses ->
    let maps = emit_copy_infos ctx loc (compute_mappings ctx loc clauses []) in
    emit ctx (Acc.enter_data ~data_operands:(List.map snd maps))
  | Ast.Acc_exit_data clauses ->
    let maps = emit_copy_infos ctx loc (compute_mappings ctx loc clauses []) in
    emit ctx (Acc.exit_data ~data_operands:(List.map snd maps))
  | Ast.Acc_update clauses ->
    let direction, names =
      match clauses with
      | [ Ast.Cl_from names ] -> ("host", names)
      | [ Ast.Cl_to names ] -> ("device", names)
      | _ -> error loc "acc update expects a single host(...) or device(...)"
    in
    let kind = if direction = "host" then Omp.From else Omp.To in
    let maps =
      emit_copy_infos ctx loc
        (List.map (fun n -> (n, kind, false)) names)
    in
    emit ctx (Acc.update ~direction ~data_operands:(List.map snd maps))

and lower_do ctx loc loop =
  let lb = to_index ctx (lower_expr ctx loc loop.Ast.do_lb) in
  let ub = to_index ctx (lower_expr ctx loc loop.Ast.do_ub) in
  let step =
    match loop.Ast.do_step with
    | Some e -> to_index ctx (lower_expr ctx loc e)
    | None -> emit_get ctx (Arith.const_index ctx.b 1)
  in
  let var_storage = storage ctx loc loop.Ast.do_var in
  let loop_op =
    Fir.do_loop ctx.b ~lb ~ub ~step (fun iv ->
        in_block ctx (fun () ->
            let iv32 = convert ctx iv Types.I32 in
            emit ctx (Fir.store ~value:iv32 ~ref_:var_storage []);
            lower_stmts ctx loop.Ast.do_body;
            emit ctx (Fir.result ())))
  in
  ctx.cur_loc <- loc;
  emit ctx loop_op

and lower_if ctx loc arms else_body =
  match arms with
  | [] -> lower_stmts ctx else_body
  | (cond, body) :: rest ->
    let cond_v = lower_expr ctx loc cond in
    let then_ops =
      in_block ctx (fun () ->
          lower_stmts ctx body;
          emit ctx (Fir.result ()))
    in
    let else_ops =
      in_block ctx (fun () ->
          lower_if ctx loc rest else_body;
          emit ctx (Fir.result ()))
    in
    let else_ops =
      (* collapse an else branch that only holds the terminator *)
      match else_ops with [ _ ] when rest = [] && else_body = [] -> [] | ops -> ops
    in
    ctx.cur_loc <- loc;
    emit ctx (Fir.if_ ~cond:cond_v ~then_ops ~else_ops ())

and lower_target ctx loc clauses body =
  let mappings = compute_mappings ctx loc clauses body in
  let maps = emit_map_infos ctx loc mappings in
  let target_op =
    Omp.target ctx.b ~map_operands:(List.map snd maps) (fun args ->
        in_block ctx (fun () ->
            (* rebind mapped variables to the region's block arguments *)
            List.iter2
              (fun (name, _) arg ->
                ctx.bindings <- Env.add name arg ctx.bindings)
              maps args;
            (* loop variables and clause-private names get kernel-local
               storage *)
            let clause_priv, _ = Ast.clause_privacy body clauses in
            List.iter
              (fun v ->
                if not (List.mem_assoc v maps) && Env.mem v ctx.symbols then begin
                  let sym = Env.find v ctx.symbols in
                  let st =
                    emit_get ctx
                      (Fir.alloca ctx.b ~bindc_name:v (storage_type sym))
                  in
                  ctx.bindings <- Env.add v st ctx.bindings
                end)
              (List.sort_uniq String.compare
                 (private_loop_vars body @ clause_priv));
            lower_stmts ctx body;
            emit ctx (Omp.terminator ())))
  in
  ctx.cur_loc <- loc;
  emit ctx target_op

and lower_parallel_do ctx pd =
  let loc = pd.Ast.pd_loc in
  let collapse =
    List.fold_left
      (fun acc c -> match c with Ast.Cl_collapse k -> k | _ -> acc)
      1 pd.Ast.pd_clauses
  in
  let simdlen =
    List.fold_left
      (fun acc c ->
        match c with
        | Ast.Cl_simdlen k | Ast.Cl_safelen k -> Some k
        | _ -> acc)
      None pd.Ast.pd_clauses
  in
  let reductions =
    List.concat_map
      (function
        | Ast.Cl_reduction (op, names) ->
          let kind =
            match op with
            | Ast.Red_add -> Omp.Red_add
            | Ast.Red_mul -> Omp.Red_mul
            | Ast.Red_max -> Omp.Red_max
            | Ast.Red_min -> Omp.Red_min
          in
          List.map (fun n -> (kind, n)) names
        | _ -> [])
      pd.Ast.pd_clauses
  in
  (* Collect the collapsed loop nest. *)
  let rec collect_nest depth loop =
    if depth = 1 then ([ loop ], loop.Ast.do_body)
    else
      match loop.Ast.do_body with
      | [ { Ast.s_kind = Ast.Do inner; _ } ] ->
        let loops, body = collect_nest (depth - 1) inner in
        (loop :: loops, body)
      | _ -> error loc "collapse requires a perfectly nested loop"
  in
  let loops, innermost_body = collect_nest collapse pd.Ast.pd_loop in
  let bounds =
    List.map
      (fun loop ->
        let lb = to_index ctx (lower_expr ctx loc loop.Ast.do_lb) in
        let ub = to_index ctx (lower_expr ctx loc loop.Ast.do_ub) in
        let step =
          match loop.Ast.do_step with
          | Some e -> to_index ctx (lower_expr ctx loc e)
          | None -> emit_get ctx (Arith.const_index ctx.b 1)
        in
        (lb, ub, step))
      loops
  in
  let red_accs =
    List.map
      (fun (kind, name) -> (kind, storage ctx loc name))
      reductions
  in
  let op =
    Omp.parallel_do ctx.b
      ~lbs:(List.map (fun (lb, _, _) -> lb) bounds)
      ~ubs:(List.map (fun (_, ub, _) -> ub) bounds)
      ~steps:(List.map (fun (_, _, s) -> s) bounds)
      ~simd:pd.Ast.pd_simd ?simdlen ~reductions:red_accs
      (fun ivs ->
        in_block ctx (fun () ->
            (* loop variables are private: give each a local slot *)
            List.iter2
              (fun loop iv ->
                let name = loop.Ast.do_var in
                let sym = symbol ctx loc name in
                let st =
                  match Env.find_opt name ctx.bindings with
                  | Some st -> st
                  | None ->
                    emit_get ctx
                      (Fir.alloca ctx.b ~bindc_name:name (storage_type sym))
                in
                ctx.bindings <- Env.add name st ctx.bindings;
                let iv32 = convert ctx iv Types.I32 in
                emit ctx (Fir.store ~value:iv32 ~ref_:st []))
              loops ivs;
            lower_stmts ctx innermost_body;
            emit ctx (Omp.yield ())))
  in
  ctx.cur_loc <- loc;
  emit ctx op

and lower_acc_parallel_loop ctx apl =
  let loc = apl.Ast.apl_loc in
  let map_clauses, loop_clauses =
    List.partition
      (function Ast.Cl_map _ -> true | _ -> false)
      apl.Ast.apl_clauses
  in
  let body_stmt =
    { Ast.s_loc = loc; Ast.s_kind = Ast.Do apl.Ast.apl_loop }
  in
  let mappings = compute_mappings ctx loc map_clauses [ body_stmt ] in
  let maps = emit_copy_infos ctx loc mappings in
  let vector_length =
    List.fold_left
      (fun acc c -> match c with Ast.Cl_simdlen k -> Some k | _ -> acc)
      None loop_clauses
  in
  let collapse =
    List.fold_left
      (fun acc c -> match c with Ast.Cl_collapse k -> k | _ -> acc)
      1 loop_clauses
  in
  let reductions =
    List.concat_map
      (function
        | Ast.Cl_reduction (op, names) ->
          let kind =
            match op with
            | Ast.Red_add -> Omp.Red_add
            | Ast.Red_mul -> Omp.Red_mul
            | Ast.Red_max -> Omp.Red_max
            | Ast.Red_min -> Omp.Red_min
          in
          List.map (fun n -> (kind, n)) names
        | _ -> [])
      loop_clauses
  in
  let parallel_op =
    Acc.parallel ctx.b
      ~data_operands:(List.map snd maps)
      (fun args ->
        in_block ctx (fun () ->
            List.iter2
              (fun (name, _) arg ->
                ctx.bindings <- Env.add name arg ctx.bindings)
              maps args;
            List.iter
              (fun v ->
                if
                  (not (List.mem_assoc v maps)) && Env.mem v ctx.symbols
                then begin
                  let sym = Env.find v ctx.symbols in
                  let st =
                    emit_get ctx
                      (Fir.alloca ctx.b ~bindc_name:v (storage_type sym))
                  in
                  ctx.bindings <- Env.add v st ctx.bindings
                end)
              (private_loop_vars [ body_stmt ]);
            (* collect the collapsed nest *)
            let rec collect_nest depth loop =
              if depth = 1 then ([ loop ], loop.Ast.do_body)
              else
                match loop.Ast.do_body with
                | [ { Ast.s_kind = Ast.Do inner; _ } ] ->
                  let loops, body = collect_nest (depth - 1) inner in
                  (loop :: loops, body)
                | _ -> error loc "collapse requires a perfectly nested loop"
            in
            let loops, innermost_body = collect_nest collapse apl.Ast.apl_loop in
            let bounds =
              List.map
                (fun loop ->
                  let lb = to_index ctx (lower_expr ctx loc loop.Ast.do_lb) in
                  let ub = to_index ctx (lower_expr ctx loc loop.Ast.do_ub) in
                  let step =
                    match loop.Ast.do_step with
                    | Some e -> to_index ctx (lower_expr ctx loc e)
                    | None -> emit_get ctx (Arith.const_index ctx.b 1)
                  in
                  (lb, ub, step))
                loops
            in
            let red_accs =
              List.map
                (fun (kind, name) -> (kind, storage ctx loc name))
                reductions
            in
            let loop_op =
              Acc.loop ctx.b
                ~lbs:(List.map (fun (lb, _, _) -> lb) bounds)
                ~ubs:(List.map (fun (_, ub, _) -> ub) bounds)
                ~steps:(List.map (fun (_, _, s) -> s) bounds)
                ?vector_length ~reductions:red_accs
                (fun ivs ->
                  in_block ctx (fun () ->
                      List.iter2
                        (fun loop iv ->
                          let name = loop.Ast.do_var in
                          let sym = symbol ctx loc name in
                          let st =
                            match Env.find_opt name ctx.bindings with
                            | Some st -> st
                            | None ->
                              emit_get ctx
                                (Fir.alloca ctx.b ~bindc_name:name
                                   (storage_type sym))
                          in
                          ctx.bindings <- Env.add name st ctx.bindings;
                          let iv32 = convert ctx iv Types.I32 in
                          emit ctx (Fir.store ~value:iv32 ~ref_:st []))
                        loops ivs;
                      lower_stmts ctx innermost_body;
                      emit ctx (Acc.yield ())))
            in
            emit ctx loop_op;
            emit ctx (Acc.terminator ())))
  in
  ctx.cur_loc <- loc;
  emit ctx parallel_op

and lower_stmts ctx stmts = List.iter (lower_stmt ctx) stmts

(* --- program units --- *)

let lower_unit info =
  let { Sema.ui_unit = unit_; ui_symbols = symbols } = info in
  let b = Builder.create () in
  let ctx =
    { b; symbols; bindings = Env.empty; out = []; cur_loc = unit_.Ast.u_loc }
  in
  (* Dummy arguments become function parameters (memrefs). *)
  let params =
    List.map
      (fun p ->
        let sym = Env.find p symbols in
        Builder.fresh b (storage_type sym))
      unit_.Ast.u_params
  in
  List.iter2
    (fun name v -> ctx.bindings <- Env.add name v ctx.bindings)
    unit_.Ast.u_params params;
  (* Locals: alloca storage for every non-dummy, non-parameter symbol. *)
  Env.iter
    (fun name sym ->
      if (not sym.Sema.sym_is_dummy) && sym.Sema.sym_constant = None then begin
        let dynamic_sizes =
          List.rev sym.Sema.sym_dims
          |> List.filter_map (function
               | Sema.Dim_const _ -> None
               | Sema.Dim_expr e ->
                 let loc = unit_.Ast.u_loc in
                 Some (to_index ctx (lower_expr ctx loc e)))
        in
        let st =
          emit_get ctx
            (Fir.alloca ctx.b ~bindc_name:name ~dynamic_sizes
               (storage_type sym))
        in
        ctx.bindings <- Env.add name st ctx.bindings
      end)
    symbols;
  lower_stmts ctx unit_.Ast.u_body;
  let result_tys, return_op =
    match unit_.Ast.u_kind with
    | Ast.Function ty ->
      let ret_storage = storage ctx unit_.Ast.u_loc unit_.Ast.u_name in
      let v = emit_get ctx (Fir.load ctx.b ret_storage []) in
      ([ scalar_type ty ], Func_d.return ~operands:[ v ] ())
    | Ast.Main_program | Ast.Subroutine -> ([], Func_d.return ())
  in
  emit ctx return_op;
  let attrs =
    match unit_.Ast.u_kind with
    | Ast.Main_program -> [ ("ftn.main", Attr.Bool true) ]
    | Ast.Subroutine | Ast.Function _ -> []
  in
  Op.set_loc
    (Func_d.func ~sym_name:unit_.Ast.u_name ~args:params ~result_tys ~attrs
       (List.rev ctx.out))
    unit_.Ast.u_loc

(* Builder ids are per-unit; rebase so ids are unique module-wide. *)
let lower checked =
  let funcs = List.map lower_unit checked in
  let b = Builder.create () in
  let funcs =
    List.map
      (fun f ->
        let f', _ = Builder.clone b f in
        f')
      funcs
  in
  Op.module_op funcs
