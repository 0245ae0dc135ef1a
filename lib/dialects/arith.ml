(* arith dialect: integer/float arithmetic, comparisons and casts. *)

open Ftn_ir

(* --- constants --- *)

let constant b attr ty = Builder.op1 b "arith.constant" ~attrs:[ ("value", attr) ] ty
let const_int b n ty = constant b (Attr.Int (n, ty)) ty
let const_index b n = const_int b n Types.Index
let const_i32 b n = const_int b n Types.I32
let const_i64 b n = const_int b n Types.I64
let const_float b x ty = constant b (Attr.Float (x, ty)) ty
let const_f32 b x = const_float b x Types.F32
let const_f64 b x = const_float b x Types.F64
let const_bool b v = const_int b (if v then 1 else 0) Types.I1

let is_constant op = String.equal (Op.name op) "arith.constant"

let constant_value op =
  if is_constant op then Op.find_attr op "value" else None

let constant_int op = Option.bind (constant_value op) Attr.as_int
let constant_float op = Option.bind (constant_value op) Attr.as_float

(* --- binary ops --- *)

let binop b name lhs rhs =
  Builder.op1 b name ~operands:[ lhs; rhs ] (Value.ty lhs)

let addi b = binop b "arith.addi"
let subi b = binop b "arith.subi"
let muli b = binop b "arith.muli"
let divsi b = binop b "arith.divsi"
let remsi b = binop b "arith.remsi"
let maxsi b = binop b "arith.maxsi"
let minsi b = binop b "arith.minsi"
let andi b = binop b "arith.andi"
let ori b = binop b "arith.ori"
let xori b = binop b "arith.xori"

let float_binop b name ?(fastmath = false) lhs rhs =
  let attrs = if fastmath then [ ("fastmath", Attr.String "contract") ] else [] in
  Builder.op1 b name ~operands:[ lhs; rhs ] ~attrs (Value.ty lhs)

let addf b ?fastmath = float_binop b "arith.addf" ?fastmath
let subf b ?fastmath = float_binop b "arith.subf" ?fastmath
let mulf b ?fastmath = float_binop b "arith.mulf" ?fastmath
let divf b ?fastmath = float_binop b "arith.divf" ?fastmath
let maxf b ?fastmath = float_binop b "arith.maximumf" ?fastmath
let minf b ?fastmath = float_binop b "arith.minimumf" ?fastmath

let negf b v = Builder.op1 b "arith.negf" ~operands:[ v ] (Value.ty v)

(* --- comparisons --- *)

type int_pred = Eq | Ne | Slt | Sle | Sgt | Sge

let string_of_int_pred = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Slt -> "slt"
  | Sle -> "sle"
  | Sgt -> "sgt"
  | Sge -> "sge"

let int_pred_of_string = function
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | "slt" -> Some Slt
  | "sle" -> Some Sle
  | "sgt" -> Some Sgt
  | "sge" -> Some Sge
  | _ -> None

let cmpi b pred lhs rhs =
  Builder.op1 b "arith.cmpi" ~operands:[ lhs; rhs ]
    ~attrs:[ ("predicate", Attr.String (string_of_int_pred pred)) ]
    Types.I1

type float_pred = Oeq | One | Une | Olt | Ole | Ogt | Oge

let string_of_float_pred = function
  | Oeq -> "oeq"
  | One -> "one"
  | Une -> "une"
  | Olt -> "olt"
  | Ole -> "ole"
  | Ogt -> "ogt"
  | Oge -> "oge"

let float_pred_of_string = function
  | "oeq" -> Some Oeq
  | "one" -> Some One
  | "une" -> Some Une
  | "olt" -> Some Olt
  | "ole" -> Some Ole
  | "ogt" -> Some Ogt
  | "oge" -> Some Oge
  | _ -> None

let cmpf b pred lhs rhs =
  Builder.op1 b "arith.cmpf" ~operands:[ lhs; rhs ]
    ~attrs:[ ("predicate", Attr.String (string_of_float_pred pred)) ]
    Types.I1

(* --- casts and select --- *)

let index_cast b v ty = Builder.op1 b "arith.index_cast" ~operands:[ v ] ty
let sitofp b v ty = Builder.op1 b "arith.sitofp" ~operands:[ v ] ty
let fptosi b v ty = Builder.op1 b "arith.fptosi" ~operands:[ v ] ty
let extf b v ty = Builder.op1 b "arith.extf" ~operands:[ v ] ty
let truncf b v ty = Builder.op1 b "arith.truncf" ~operands:[ v ] ty
let extsi b v ty = Builder.op1 b "arith.extsi" ~operands:[ v ] ty
let trunci b v ty = Builder.op1 b "arith.trunci" ~operands:[ v ] ty

let select b cond t f =
  Builder.op1 b "arith.select" ~operands:[ cond; t; f ] (Value.ty t)

(* Integer fold table used by canonicalisation. *)
let fold_int_binop name x y =
  match name with
  | "arith.addi" -> Some (x + y)
  | "arith.subi" -> Some (x - y)
  | "arith.muli" -> Some (x * y)
  | "arith.divsi" -> if y = 0 then None else Some (x / y)
  | "arith.remsi" -> if y = 0 then None else Some (x mod y)
  | "arith.maxsi" -> Some (max x y)
  | "arith.minsi" -> Some (min x y)
  | "arith.andi" -> Some (x land y)
  | "arith.ori" -> Some (x lor y)
  | "arith.xori" -> Some (x lxor y)
  | _ -> None

(* At f32 the operands are taken as the f32 values the emitted code holds
   and the result rounds, as every f32 op does. *)
let fold_float_binop name ty x y =
  let x = Types.round_to ty x and y = Types.round_to ty y in
  Option.map (Types.round_to ty)
    (match name with
    | "arith.addf" -> Some (x +. y)
    | "arith.subf" -> Some (x -. y)
    | "arith.mulf" -> Some (x *. y)
    | "arith.divf" -> Some (x /. y)
    | "arith.maximumf" -> Some (Float.max x y)
    | "arith.minimumf" -> Some (Float.min x y)
    | _ -> None)

let eval_int_pred pred x y =
  match pred with
  | Eq -> x = y
  | Ne -> x <> y
  | Slt -> x < y
  | Sle -> x <= y
  | Sgt -> x > y
  | Sge -> x >= y

let eval_float_pred pred x y =
  match pred with
  | Oeq -> x = y
  | One -> x < y || x > y
  | Une -> x <> y
  | Olt -> x < y
  | Ole -> x <= y
  | Ogt -> x > y
  | Oge -> x >= y

let int_binop_names =
  [ "arith.addi"; "arith.subi"; "arith.muli"; "arith.divsi"; "arith.remsi";
    "arith.maxsi"; "arith.minsi"; "arith.andi"; "arith.ori"; "arith.xori" ]

let float_binop_names =
  [ "arith.addf"; "arith.subf"; "arith.mulf"; "arith.divf";
    "arith.maximumf"; "arith.minimumf" ]

let register () =
  let open Dialect in
  let verify_binop op =
    let* () = expect_operands op 2 in
    let* () = expect_results op 1 in
    same_type_operands op
  in
  Dialect.register "arith.constant" ~summary:"integer or float constant"
    ~verify:(fun op ->
      let* () = expect_operands op 0 in
      let* () = expect_results op 1 in
      expect_attr op "value");
  List.iter
    (fun name -> Dialect.register name ~summary:"binary op" ~verify:verify_binop)
    (int_binop_names @ float_binop_names);
  Dialect.register "arith.negf" ~verify:(fun op ->
      let* () = expect_operands op 1 in
      expect_results op 1);
  List.iter
    (fun name ->
      Dialect.register name ~summary:"comparison" ~verify:(fun op ->
          let* () = expect_operands op 2 in
          let* () = expect_results op 1 in
          let* () = expect_attr op "predicate" in
          same_type_operands op))
    [ "arith.cmpi"; "arith.cmpf" ];
  List.iter
    (fun name ->
      Dialect.register name ~summary:"cast" ~verify:(fun op ->
          let* () = expect_operands op 1 in
          expect_results op 1))
    [ "arith.index_cast"; "arith.sitofp"; "arith.fptosi"; "arith.extf";
      "arith.truncf"; "arith.extsi"; "arith.trunci" ];
  Dialect.register "arith.select" ~verify:(fun op ->
      let* () = expect_operands op 3 in
      let* () = expect_results op 1 in
      expect_operand_type op 0 Types.I1)
