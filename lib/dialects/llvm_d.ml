(* llvm dialect: the lowest MLIR level before LLVM-IR emission. Unlike the
   structured dialects this uses explicit CFG form: llvm.func regions hold
   multiple blocks, and branch ops name their successors through block-label
   attributes (block arguments play the role of phi nodes). *)

open Ftn_ir

let func ~sym_name ~blocks ~fn_ty ?(attrs = []) () =
  Op.make "llvm.func"
    ~attrs:
      ([ ("sym_name", Attr.Symbol sym_name); ("function_type", Attr.Type fn_ty) ]
      @ attrs)
    ~regions:[ blocks ]

let func_decl ~sym_name ~fn_ty () =
  Op.make "llvm.func"
    ~attrs:
      [
        ("sym_name", Attr.Symbol sym_name);
        ("function_type", Attr.Type fn_ty);
        ("linkage", Attr.String "external");
      ]

let return ?(operands = []) () = Op.make "llvm.return" ~operands

let constant b attr ty =
  Builder.op1 b "llvm.mlir.constant" ~attrs:[ ("value", attr) ] ty

let binop b name lhs rhs =
  Builder.op1 b ("llvm." ^ name) ~operands:[ lhs; rhs ] (Value.ty lhs)

let icmp b pred lhs rhs =
  Builder.op1 b "llvm.icmp" ~operands:[ lhs; rhs ]
    ~attrs:[ ("predicate", Attr.String pred) ]
    Types.I1

let fcmp b pred lhs rhs =
  Builder.op1 b "llvm.fcmp" ~operands:[ lhs; rhs ]
    ~attrs:[ ("predicate", Attr.String pred) ]
    Types.I1

(* llvm.br: unconditional jump; operands feed the successor's block args. *)
let br ~dest ?(operands = []) () =
  Op.make "llvm.br" ~operands ~attrs:[ ("dest", Attr.String dest) ]

(* llvm.cond_br: [true_operand_count] splits the trailing operands between
   the two successors' block arguments. *)
let cond_br ~cond ~true_dest ?(true_operands = []) ~false_dest
    ?(false_operands = []) () =
  Op.make "llvm.cond_br"
    ~operands:((cond :: true_operands) @ false_operands)
    ~attrs:
      [
        ("true_dest", Attr.String true_dest);
        ("false_dest", Attr.String false_dest);
        ("true_operand_count", Attr.i32 (List.length true_operands));
      ]

let getelementptr b ~base ~indices ~elem_ty =
  Builder.op1 b "llvm.getelementptr" ~operands:(base :: indices)
    ~attrs:[ ("elem_type", Attr.Type elem_ty) ]
    (Value.ty base)

let load b ptr elt_ty = Builder.op1 b "llvm.load" ~operands:[ ptr ] elt_ty
let store ~value ~ptr = Op.make "llvm.store" ~operands:[ value; ptr ]

let alloca b ~count elt_ty =
  Builder.op1 b "llvm.alloca" ~operands:[ count ]
    ~attrs:[ ("elem_type", Attr.Type elt_ty) ]
    (Types.Ptr elt_ty)

let call b ~callee ~operands ~result_tys =
  let results = List.map (Builder.fresh b) result_tys in
  Op.make "llvm.call" ~operands ~results
    ~attrs:[ ("callee", Attr.Symbol callee) ]

let cast b name v ty = Builder.op1 b ("llvm." ^ name) ~operands:[ v ] ty

let is_func op = String.equal (Op.name op) "llvm.func"
let is_br op = String.equal (Op.name op) "llvm.br"
let is_cond_br op = String.equal (Op.name op) "llvm.cond_br"
let is_return op = String.equal (Op.name op) "llvm.return"

let cond_br_parts op =
  if not (is_cond_br op) then None
  else
    match Op.operands op with
    | cond :: rest ->
      let n = Option.value ~default:0 (Op.int_attr op "true_operand_count") in
      let rec split i acc = function
        | rest when i = 0 -> (List.rev acc, rest)
        | x :: rest -> split (i - 1) (x :: acc) rest
        | [] -> (List.rev acc, [])
      in
      let true_operands, false_operands = split n [] rest in
      Some
        ( cond,
          Option.value ~default:"" (Op.string_attr op "true_dest"),
          true_operands,
          Option.value ~default:"" (Op.string_attr op "false_dest"),
          false_operands )
    | [] -> None

let arith_op_names =
  [ "llvm.add"; "llvm.sub"; "llvm.mul"; "llvm.sdiv"; "llvm.srem";
    "llvm.fadd"; "llvm.fsub"; "llvm.fmul"; "llvm.fdiv"; "llvm.and";
    "llvm.or"; "llvm.xor" ]

let cast_op_names =
  [ "llvm.sitofp"; "llvm.fptosi"; "llvm.sext"; "llvm.zext"; "llvm.trunc";
    "llvm.fpext"; "llvm.fptrunc"; "llvm.bitcast"; "llvm.fneg" ]

let register () =
  let open Dialect in
  Dialect.register "llvm.func" ~summary:"LLVM function" ~verify:(fun op ->
      let* () = expect_attr op "sym_name" in
      expect_attr op "function_type");
  Dialect.register "llvm.return";
  Dialect.register "llvm.mlir.constant" ~verify:(fun op ->
      let* () = expect_results op 1 in
      expect_attr op "value");
  List.iter
    (fun name ->
      Dialect.register name ~verify:(fun op ->
          let* () = expect_operands op 2 in
          expect_results op 1))
    arith_op_names;
  List.iter
    (fun name ->
      Dialect.register name ~verify:(fun op ->
          let* () = expect_operands op 1 in
          expect_results op 1))
    cast_op_names;
  List.iter
    (fun name ->
      Dialect.register name ~verify:(fun op ->
          let* () = expect_operands op 2 in
          let* () = expect_attr op "predicate" in
          expect_results op 1))
    [ "llvm.icmp"; "llvm.fcmp" ];
  Dialect.register "llvm.br" ~verify:(fun op -> expect_attr op "dest");
  Dialect.register "llvm.cond_br" ~verify:(fun op ->
      let* () = expect_attr op "true_dest" in
      let* () = expect_attr op "false_dest" in
      check
        (List.length (Op.operands op) >= 1)
        "llvm.cond_br needs a condition");
  Dialect.register "llvm.getelementptr" ~verify:(fun op ->
      let* () = expect_results op 1 in
      expect_attr op "elem_type");
  Dialect.register "llvm.load" ~verify:(fun op ->
      let* () = expect_operands op 1 in
      expect_results op 1);
  Dialect.register "llvm.store" ~verify:(fun op -> expect_operands op 2);
  Dialect.register "llvm.alloca" ~verify:(fun op ->
      let* () = expect_results op 1 in
      expect_attr op "elem_type");
  Dialect.register "llvm.call" ~verify:(fun op -> expect_attr op "callee");
  Dialect.register "llvm.select" ~verify:(fun op ->
      let* () = expect_operands op 3 in
      expect_results op 1)
