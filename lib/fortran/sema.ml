(* Semantic analysis: builds per-unit symbol tables, resolves the
   array-reference / function-call ambiguity, folds named constants, and
   type-checks expressions and statements. The checked AST (with Intrinsic
   nodes resolved) plus the symbol tables feed the FIR lowering. *)

exception Sema_error of string * Ftn_diag.Loc.t

let error loc msg = raise (Sema_error (msg, loc))

type dim =
  | Dim_const of int
  | Dim_expr of Ast.expr  (** Extent known only at runtime (dummy args). *)

type symbol = {
  sym_name : string;
  sym_type : Ast.base_type;
  sym_dims : dim list;  (** Empty for scalars. *)
  sym_is_dummy : bool;
  sym_constant : Ast.expr option;  (** Folded value of named constants. *)
}

module Env = Map.Make (String)

type unit_info = {
  ui_unit : Ast.program_unit;  (** With Intrinsic nodes resolved. *)
  ui_symbols : symbol Env.t;
}

type checked = unit_info list

(* Function signatures of the program being checked (name -> result type
   and arity), collected before unit checking so calls can cross units. *)
let current_functions : (string, Ast.base_type * int) Hashtbl.t =
  Hashtbl.create 8

let intrinsics =
  [ "sqrt"; "abs"; "exp"; "log"; "sin"; "cos"; "tanh"; "mod"; "max"; "min";
    "real"; "dble"; "int"; "float"; "nint" ]

let is_intrinsic name = List.mem name intrinsics

let find env name = Env.find_opt name env

let lookup env loc name =
  match find env name with
  | Some s -> s
  | None -> error loc ("undeclared variable " ^ name)

(* --- constant folding for parameters and dimension extents --- *)

(* Every integer folding step must stay in the default kind, the i32 that
   lower_fir emits; checking each step keeps 2 ** 70 from wrapping back
   into range in OCaml's 63-bit ints. *)
let rec fold_const env loc e =
  let in_kind n =
    if n < -2147483648 || n > 2147483647 then
      error loc
        (Fmt.str "integer constant %d is out of range of the default kind" n)
    else n
  in
  let int_lit n = Some (Ast.Int_lit (in_kind n)) in
  match e with
  | Ast.Int_lit _ | Ast.Real_lit _ | Ast.Logical_lit _ -> Some e
  | Ast.Var name -> (
    match find env name with
    | Some { sym_constant = Some c; _ } -> Some c
    | _ -> None)
  | Ast.Binop (op, a, b) -> (
    match (fold_const env loc a, fold_const env loc b) with
    | Some (Ast.Int_lit x), Some (Ast.Int_lit y) -> (
      match op with
      | Ast.Add -> int_lit (x + y)
      | Ast.Sub -> int_lit (x - y)
      | Ast.Mul -> int_lit (x * y)
      | Ast.Div -> if y = 0 then None else int_lit (x / y)
      | Ast.Pow ->
        let rec pow acc n =
          if n <= 0 then acc else pow (in_kind (acc * x)) (n - 1)
        in
        if y >= 0 then int_lit (pow 1 y) else None
      | _ -> None)
    | _ -> None)
  | Ast.Unop (Ast.Neg, a) -> (
    match fold_const env loc a with
    | Some (Ast.Int_lit x) -> int_lit (-x)
    | Some (Ast.Real_lit (x, k)) -> Some (Ast.Real_lit (-.x, k))
    | _ -> None)
  | Ast.Unop (Ast.Not, _) | Ast.Index _ | Ast.Intrinsic _
  | Ast.User_call _ ->
    None

let const_int env loc e =
  match fold_const env loc e with Some (Ast.Int_lit n) -> Some n | _ -> None

(* --- expression typing and resolution --- *)

let promote a b =
  match (a, b) with
  | Ast.Ty_double, _ | _, Ast.Ty_double -> Ast.Ty_double
  | Ast.Ty_real, _ | _, Ast.Ty_real -> Ast.Ty_real
  | Ast.Ty_integer, Ast.Ty_integer -> Ast.Ty_integer
  | Ast.Ty_logical, Ast.Ty_logical -> Ast.Ty_logical
  | _ -> Ast.Ty_real

let intrinsic_type loc name arg_tys =
  match name with
  | "sqrt" | "exp" | "log" | "sin" | "cos" | "tanh" -> (
    match arg_tys with
    | [ (Ast.Ty_real | Ast.Ty_double) as t ] -> t
    | [ Ast.Ty_integer ] -> Ast.Ty_real
    | _ -> error loc (name ^ " expects one numeric argument"))
  | "abs" -> (
    match arg_tys with
    | [ t ] -> t
    | _ -> error loc "abs expects one argument")
  | "mod" -> (
    match arg_tys with
    | [ a; b ] -> promote a b
    | _ -> error loc "mod expects two arguments")
  | "max" | "min" ->
    if List.length arg_tys < 2 then
      error loc (name ^ " expects at least two arguments")
    else List.fold_left promote Ast.Ty_integer arg_tys
  | "real" | "float" -> Ast.Ty_real
  | "dble" -> Ast.Ty_double
  | "int" | "nint" -> Ast.Ty_integer
  | "__str" -> Ast.Ty_integer
  | _ -> error loc ("unknown intrinsic " ^ name)

(* Resolve Index nodes into array references or intrinsic calls, and
   return the rewritten expression with its type. *)
let rec check_expr env loc e =
  match e with
  | Ast.Int_lit _ -> (e, Ast.Ty_integer)
  | Ast.Real_lit (_, k) -> (e, k)
  | Ast.Logical_lit _ -> (e, Ast.Ty_logical)
  | Ast.Var name ->
    let s = lookup env loc name in
    if s.sym_dims <> [] then
      error loc ("whole-array reference to " ^ name ^ " is not supported")
    else (e, s.sym_type)
  | Ast.Index (name, args) -> (
    match find env name with
    | Some s when s.sym_dims <> [] ->
      if List.length args <> List.length s.sym_dims then
        error loc
          (Fmt.str "array %s has rank %d but %d subscripts given" name
             (List.length s.sym_dims) (List.length args));
      let args' =
        List.map
          (fun a ->
            let a', ty = check_expr env loc a in
            match ty with
            | Ast.Ty_integer -> a'
            | _ -> error loc ("subscript of " ^ name ^ " must be integer"))
          args
      in
      (Ast.Index (name, args'), s.sym_type)
    | Some _ -> error loc (name ^ " is not an array")
    | None ->
      if is_intrinsic name then begin
        let args', tys =
          List.split (List.map (check_expr env loc) args)
        in
        (Ast.Intrinsic (name, args'), intrinsic_type loc name tys)
      end
      else begin
        match Hashtbl.find_opt current_functions name with
        | Some (result_ty, arity) ->
          if List.length args <> arity then
            error loc
              (Fmt.str "function %s expects %d argument(s), got %d" name
                 arity (List.length args));
          let args' = List.map (fun a -> fst (check_expr env loc a)) args in
          (Ast.User_call (name, result_ty, args'), result_ty)
        | None -> error loc ("unknown array or function " ^ name)
      end)
  | Ast.Binop (op, a, b) -> (
    let a', ta = check_expr env loc a in
    let b', tb = check_expr env loc b in
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow ->
      if ta = Ast.Ty_logical || tb = Ast.Ty_logical then
        error loc "arithmetic on logical values";
      (Ast.Binop (op, a', b'), promote ta tb)
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      (Ast.Binop (op, a', b'), Ast.Ty_logical)
    | Ast.And | Ast.Or ->
      if ta <> Ast.Ty_logical || tb <> Ast.Ty_logical then
        error loc "logical operator on non-logical values";
      (Ast.Binop (op, a', b'), Ast.Ty_logical))
  | Ast.Unop (Ast.Neg, a) ->
    let a', ta = check_expr env loc a in
    if ta = Ast.Ty_logical then error loc "negation of a logical value";
    (Ast.Unop (Ast.Neg, a'), ta)
  | Ast.Unop (Ast.Not, a) ->
    let a', ta = check_expr env loc a in
    if ta <> Ast.Ty_logical then error loc ".not. on non-logical value";
    (Ast.Unop (Ast.Not, a'), Ast.Ty_logical)
  | Ast.Intrinsic (name, args) ->
    let args', tys = List.split (List.map (check_expr env loc) args) in
    (Ast.Intrinsic (name, args'), intrinsic_type loc name tys)
  | Ast.User_call (name, ty, args) ->
    let args' = List.map (fun a -> fst (check_expr env loc a)) args in
    (Ast.User_call (name, ty, args'), ty)

let expr_type env loc e = snd (check_expr env loc e)

(* --- statements --- *)

let check_clause_vars env loc clauses =
  let check_names names =
    List.iter (fun n -> ignore (lookup env loc n)) names
  in
  List.iter
    (function
      | Ast.Cl_map (_, names)
      | Ast.Cl_reduction (_, names)
      | Ast.Cl_from names
      | Ast.Cl_to names
      | Ast.Cl_private names
      | Ast.Cl_firstprivate names ->
        check_names names
      | Ast.Cl_simdlen k | Ast.Cl_safelen k | Ast.Cl_collapse k ->
        if k <= 0 then error loc "clause argument must be positive")
    clauses

let rec check_stmt env stmt =
  let loc = stmt.Ast.s_loc in
  let kind =
    match stmt.Ast.s_kind with
    | Ast.Assign (lhs, rhs) -> (
      let rhs', _rty = check_expr env loc rhs in
      match lhs with
      | Ast.Var name ->
        let s = lookup env loc name in
        if s.sym_dims <> [] then
          error loc ("assignment to whole array " ^ name);
        if s.sym_constant <> None then
          error loc ("assignment to parameter " ^ name);
        Ast.Assign (lhs, rhs')
      | Ast.Index (name, args) -> (
        let lhs', _ = check_expr env loc (Ast.Index (name, args)) in
        match lhs' with
        | Ast.Index _ -> Ast.Assign (lhs', rhs')
        | _ -> error loc ("assignment target " ^ name ^ " is not an array"))
      | _ -> error loc "invalid assignment target")
    | Ast.Do loop -> Ast.Do (check_do env loc loop)
    | Ast.Do_while (cond, body) ->
      let cond', ty = check_expr env loc cond in
      if ty <> Ast.Ty_logical then
        error loc "do while condition must be logical";
      Ast.Do_while (cond', check_stmts env body)
    | Ast.If (arms, else_body) ->
      let arms' =
        List.map
          (fun (cond, body) ->
            let cond', ty = check_expr env loc cond in
            if ty <> Ast.Ty_logical then
              error loc "if condition must be logical";
            (cond', check_stmts env body))
          arms
      in
      Ast.If (arms', check_stmts env else_body)
    | Ast.Call (name, args) ->
      let args' = List.map (fun a -> fst (check_expr_arg env loc a)) args in
      Ast.Call (name, args')
    | Ast.Print args ->
      Ast.Print (List.map (fun a -> fst (check_print_item env loc a)) args)
    | Ast.Exit_stmt -> Ast.Exit_stmt
    | Ast.Cycle_stmt -> Ast.Cycle_stmt
    | Ast.Omp_target (clauses, body) ->
      check_clause_vars env loc clauses;
      Ast.Omp_target (clauses, check_stmts env body)
    | Ast.Omp_target_data (clauses, body) ->
      check_clause_vars env loc clauses;
      Ast.Omp_target_data (clauses, check_stmts env body)
    | Ast.Omp_target_enter_data clauses ->
      check_clause_vars env loc clauses;
      Ast.Omp_target_enter_data clauses
    | Ast.Omp_target_exit_data clauses ->
      check_clause_vars env loc clauses;
      Ast.Omp_target_exit_data clauses
    | Ast.Omp_target_update clauses ->
      check_clause_vars env loc clauses;
      Ast.Omp_target_update clauses
    | Ast.Omp_parallel_do pd ->
      check_clause_vars env loc pd.Ast.pd_clauses;
      Ast.Omp_parallel_do
        { pd with Ast.pd_loop = check_do env pd.Ast.pd_loc pd.Ast.pd_loop }
    | Ast.Acc_parallel_loop apl ->
      check_clause_vars env loc apl.Ast.apl_clauses;
      Ast.Acc_parallel_loop
        { apl with Ast.apl_loop = check_do env apl.Ast.apl_loc apl.Ast.apl_loop }
    | Ast.Acc_data (clauses, body) ->
      check_clause_vars env loc clauses;
      Ast.Acc_data (clauses, check_stmts env body)
    | Ast.Acc_enter_data clauses ->
      check_clause_vars env loc clauses;
      Ast.Acc_enter_data clauses
    | Ast.Acc_exit_data clauses ->
      check_clause_vars env loc clauses;
      Ast.Acc_exit_data clauses
    | Ast.Acc_update clauses ->
      check_clause_vars env loc clauses;
      Ast.Acc_update clauses
  in
  { stmt with Ast.s_kind = kind }

and check_do env loc loop =
  let s = lookup env loc loop.Ast.do_var in
  if s.sym_type <> Ast.Ty_integer || s.sym_dims <> [] then
    error loc ("do variable " ^ loop.Ast.do_var ^ " must be an integer scalar");
  let check_int e =
    let e', ty = check_expr env loc e in
    if ty <> Ast.Ty_integer then error loc "loop bounds must be integer";
    e'
  in
  {
    loop with
    Ast.do_lb = check_int loop.Ast.do_lb;
    do_ub = check_int loop.Ast.do_ub;
    do_step = Option.map check_int loop.Ast.do_step;
    do_body = check_stmts env loop.Ast.do_body;
  }

and check_stmts env stmts = List.map (check_stmt env) stmts

(* Subroutine arguments may be whole arrays (pass-by-reference); allow a
   bare Var naming an array here, unlike in expressions. *)
and check_expr_arg env loc e =
  match e with
  | Ast.Var name ->
    let s = lookup env loc name in
    (e, s.sym_type)
  | _ -> check_expr env loc e

and check_print_item env loc e =
  match e with
  | Ast.Intrinsic ("__str", _) -> (e, Ast.Ty_integer)
  | _ -> check_expr env loc e

(* --- declarations and units --- *)

let build_symbols ?engine unit_ =
  let { Ast.u_params; u_decls; u_loc; _ } = unit_ in
  let env = ref Env.empty in
  let add_decl d =
      let loc = d.Ast.d_loc in
      if Env.mem d.Ast.d_name !env then
        error loc ("duplicate declaration of " ^ d.Ast.d_name);
      let constant =
        match d.Ast.d_parameter with
        | Some e -> (
          match fold_const !env loc e with
          | Some c -> Some c
          | None -> error loc ("parameter " ^ d.Ast.d_name ^ " is not constant"))
        | None -> None
      in
      let dims =
        List.map
          (fun extent ->
            match const_int !env loc extent with
            | Some n when n > 0 -> Dim_const n
            | Some _ -> Dim_expr extent
            | None -> Dim_expr extent)
          d.Ast.d_dims
      in
      let is_dummy = List.mem d.Ast.d_name u_params in
      env :=
        Env.add d.Ast.d_name
          {
            sym_name = d.Ast.d_name;
            sym_type = d.Ast.d_type;
            sym_dims = dims;
            sym_is_dummy = is_dummy;
            sym_constant = constant;
          }
          !env
  in
  (* With an engine, a bad declaration is reported and skipped so the rest
     of the unit can still be checked (multi-error reporting); without one,
     the first Sema_error propagates as before. *)
  List.iter
    (fun d ->
      match engine with
      | None -> add_decl d
      | Some eng -> (
        try add_decl d
        with Sema_error (msg, loc) -> Ftn_diag.Diag_engine.error eng ~loc msg))
    u_decls;
  List.iter
    (fun p ->
      if not (Env.mem p !env) then
        error u_loc ("dummy argument " ^ p ^ " is not declared"))
    u_params;
  !env

let check_unit ?engine unit_ =
  let symbols = build_symbols ?engine unit_ in
  let body =
    match engine with
    | None -> check_stmts symbols unit_.Ast.u_body
    | Some eng ->
      (* Recover per top-level statement: an error inside a statement
         reports it and moves on to the next. *)
      List.map
        (fun stmt ->
          try check_stmt symbols stmt
          with Sema_error (msg, loc) ->
            Ftn_diag.Diag_engine.error eng ~loc msg;
            stmt)
        unit_.Ast.u_body
  in
  { ui_unit = { unit_ with Ast.u_body = body }; ui_symbols = symbols }

let check ?engine program =
  Hashtbl.reset current_functions;
  List.iter
    (fun u ->
      match u.Ast.u_kind with
      | Ast.Function ty ->
        Hashtbl.replace current_functions u.Ast.u_name
          (ty, List.length u.Ast.u_params)
      | Ast.Main_program | Ast.Subroutine -> ())
    program;
  let checked = List.map (check_unit ?engine) program in
  (match engine with
  | Some eng -> Ftn_diag.Diag_engine.fail_if_errors eng
  | None -> ());
  checked
