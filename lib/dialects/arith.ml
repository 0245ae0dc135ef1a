(* arith dialect: integer/float arithmetic, comparisons and casts. Each
   op is one [kind], [name] is the one table of op names, and every
   consumer dispatches on the variant, so a new or changed op is a compile
   error wherever its meaning must be decided. The folder and the
   tree-walker share the evaluators; the compiled engine inlines them. *)

open Ftn_ir

type int_binop =
  | Addi | Subi | Muli | Divsi | Remsi | Maxsi | Minsi | Andi | Ori | Xori
type float_binop = Addf | Subf | Mulf | Divf | Maximumf | Minimumf
type cast =
  | Index_cast | Sitofp | Fptosi | Extf | Truncf | Extsi | Extui | Trunci

type kind =
  | Constant
  | Int_binop of int_binop
  | Float_binop of float_binop
  | Negf
  | Cmpi
  | Cmpf
  | Cast of cast
  | Select

let name = function
  | Constant -> "arith.constant"
  | Int_binop Addi -> "arith.addi"
  | Int_binop Subi -> "arith.subi"
  | Int_binop Muli -> "arith.muli"
  | Int_binop Divsi -> "arith.divsi"
  | Int_binop Remsi -> "arith.remsi"
  | Int_binop Maxsi -> "arith.maxsi"
  | Int_binop Minsi -> "arith.minsi"
  | Int_binop Andi -> "arith.andi"
  | Int_binop Ori -> "arith.ori"
  | Int_binop Xori -> "arith.xori"
  | Float_binop Addf -> "arith.addf"
  | Float_binop Subf -> "arith.subf"
  | Float_binop Mulf -> "arith.mulf"
  | Float_binop Divf -> "arith.divf"
  | Float_binop Maximumf -> "arith.maximumf"
  | Float_binop Minimumf -> "arith.minimumf"
  | Negf -> "arith.negf"
  | Cmpi -> "arith.cmpi"
  | Cmpf -> "arith.cmpf"
  | Cast Index_cast -> "arith.index_cast"
  | Cast Sitofp -> "arith.sitofp"
  | Cast Fptosi -> "arith.fptosi"
  | Cast Extf -> "arith.extf"
  | Cast Truncf -> "arith.truncf"
  | Cast Extsi -> "arith.extsi"
  | Cast Extui -> "arith.extui"
  | Cast Trunci -> "arith.trunci"
  | Select -> "arith.select"

let all =
  Constant
  :: List.map (fun o -> Int_binop o)
       [ Addi; Subi; Muli; Divsi; Remsi; Maxsi; Minsi; Andi; Ori; Xori ]
  @ List.map (fun o -> Float_binop o)
      [ Addf; Subf; Mulf; Divf; Maximumf; Minimumf ]
  @ [ Negf; Cmpi; Cmpf ]
  @ List.map (fun c -> Cast c)
      [ Index_cast; Sitofp; Fptosi; Extf; Truncf; Extsi; Extui; Trunci ]
  @ [ Select ]

let by_name =
  let t = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace t (name k) k) all;
  t

let kind op = Hashtbl.find_opt by_name (Op.name op)

(* --- constants --- *)

let constant b attr ty =
  Builder.op1 b (name Constant) ~attrs:[ ("value", attr) ] ty

let const_int b n ty = constant b (Attr.Int (n, ty)) ty
let const_index b n = const_int b n Types.Index
let const_i32 b n = const_int b n Types.I32
let const_float b x ty = constant b (Attr.Float (x, ty)) ty
let const_f32 b x = const_float b x Types.F32
let const_f64 b x = const_float b x Types.F64
let const_bool b v = const_int b (if v then 1 else 0) Types.I1

let is_constant op = String.equal (Op.name op) (name Constant)

let constant_value op =
  if is_constant op then Op.find_attr op "value" else None

type scalar =
  | Bool of bool
  | Int of int
  | Float of float

(* An i1 is true when non-zero, and a float is its value at its type: an
   f32 literal means the f32 value the emitted code holds, whatever f64
   value the attribute keeps. *)
let scalar_of_attr = function
  | Attr.Int (n, Types.I1) -> Some (Bool (n <> 0))
  | Attr.Int (n, _) -> Some (Int n)
  | Attr.Float (x, ty) -> Some (Float (Types.round_to ty x))
  | Attr.Bool b -> Some (Bool b)
  | _ -> None

let constant_int op = Option.bind (constant_value op) Attr.as_int

(* --- binary ops --- *)

let int_binop b o lhs rhs =
  Builder.op1 b (name (Int_binop o)) ~operands:[ lhs; rhs ] (Value.ty lhs)

let addi b = int_binop b Addi
let subi b = int_binop b Subi
let muli b = int_binop b Muli
let divsi b = int_binop b Divsi
let remsi b = int_binop b Remsi
let maxsi b = int_binop b Maxsi
let minsi b = int_binop b Minsi
let andi b = int_binop b Andi
let ori b = int_binop b Ori
let xori b = int_binop b Xori

let float_binop b o ?(fastmath = false) lhs rhs =
  let attrs = if fastmath then [ ("fastmath", Attr.String "contract") ] else [] in
  Builder.op1 b (name (Float_binop o)) ~operands:[ lhs; rhs ] ~attrs
    (Value.ty lhs)

let addf b ?fastmath = float_binop b Addf ?fastmath
let subf b ?fastmath = float_binop b Subf ?fastmath
let mulf b ?fastmath = float_binop b Mulf ?fastmath
let divf b ?fastmath = float_binop b Divf ?fastmath
let maxf b ?fastmath = float_binop b Maximumf ?fastmath
let minf b ?fastmath = float_binop b Minimumf ?fastmath

let negf b v = Builder.op1 b (name Negf) ~operands:[ v ] (Value.ty v)

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
  Builder.op1 b (name Cmpi) ~operands:[ lhs; rhs ]
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
  Builder.op1 b (name Cmpf) ~operands:[ lhs; rhs ]
    ~attrs:[ ("predicate", Attr.String (string_of_float_pred pred)) ]
    Types.I1

(* --- casts and select --- *)

let cast b c v ty = Builder.op1 b (name (Cast c)) ~operands:[ v ] ty
let index_cast b = cast b Index_cast
let sitofp b = cast b Sitofp
let fptosi b = cast b Fptosi
let extf b = cast b Extf
let truncf b = cast b Truncf

let select b cond t f =
  Builder.op1 b (name Select) ~operands:[ cond; t; f ] (Value.ty t)

(* --- evaluators --- *)

(* At result type [ty]: an i1 result is 0 or 1, non-zero meaning true.
   [None] when divsi or remsi divides by zero. *)
let eval_int_binop o ty x y =
  let at_ty r =
    Some (match ty with Types.I1 -> if r <> 0 then 1 else 0 | _ -> r)
  in
  match o with
  | Addi -> at_ty (x + y)
  | Subi -> at_ty (x - y)
  | Muli -> at_ty (x * y)
  | Divsi -> if y = 0 then None else at_ty (x / y)
  | Remsi -> if y = 0 then None else at_ty (x mod y)
  | Maxsi -> at_ty (if x >= y then x else y)
  | Minsi -> at_ty (if x <= y then x else y)
  | Andi -> at_ty (x land y)
  | Ori -> at_ty (x lor y)
  | Xori -> at_ty (x lxor y)

(* At result type [ty]: an f32 result rounds, as every f32 op does. *)
let eval_float_binop o ty x y =
  Types.round_to ty
    (match o with
    | Addf -> x +. y
    | Subf -> x -. y
    | Mulf -> x *. y
    | Divf -> x /. y
    | Maximumf -> Float.max x y
    | Minimumf -> Float.min x y)

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

let register () =
  let open Dialect in
  let verify_binop op =
    let* () = expect_operands op 2 in
    let* () = expect_results op 1 in
    same_type_operands op
  in
  let verify_unary op =
    let* () = expect_operands op 1 in
    expect_results op 1
  in
  List.iter
    (fun k ->
      let register ?summary verify =
        Dialect.register ?summary ~verify (name k)
      in
      match k with
      | Constant ->
        register ~summary:"integer or float constant" (fun op ->
            let* () = expect_operands op 0 in
            let* () = expect_results op 1 in
            expect_attr op "value")
      | Int_binop _ | Float_binop _ ->
        register ~summary:"binary op" verify_binop
      | Negf -> register verify_unary
      | Cmpi | Cmpf ->
        register ~summary:"comparison" (fun op ->
            let* () = expect_operands op 2 in
            let* () = expect_results op 1 in
            let* () = expect_attr op "predicate" in
            same_type_operands op)
      | Cast _ -> register ~summary:"cast" verify_unary
      | Select ->
        register (fun op ->
            let* () = expect_operands op 3 in
            let* () = expect_results op 1 in
            expect_operand_type op 0 Types.I1))
    all
