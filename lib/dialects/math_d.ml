(* math dialect: elementary floating-point functions. *)

open Ftn_ir

let unary b name v = Builder.op1 b name ~operands:[ v ] (Value.ty v)

let sqrt b = unary b "math.sqrt"
let exp b = unary b "math.exp"
let log b = unary b "math.log"
let sin b = unary b "math.sin"
let cos b = unary b "math.cos"
let tanh b = unary b "math.tanh"
let absf b = unary b "math.absf"

let powf b base expo =
  Builder.op1 b "math.powf" ~operands:[ base; expo ] (Value.ty base)

let unary_fns =
  [ ("math.sqrt", Float.sqrt); ("math.exp", Float.exp); ("math.log", Float.log);
    ("math.sin", Float.sin); ("math.cos", Float.cos); ("math.tanh", Float.tanh);
    ("math.absf", Float.abs) ]

let unary_names = List.map fst unary_fns
let unary_fn name = List.assoc_opt name unary_fns

let register () =
  let open Dialect in
  List.iter
    (fun name ->
      Dialect.register name ~summary:"elementary function" ~verify:(fun op ->
          let* () = expect_operands op 1 in
          expect_results op 1))
    unary_names;
  Dialect.register "math.powf" ~verify:(fun op ->
      let* () = expect_operands op 2 in
      let* () = expect_results op 1 in
      same_type_operands op)
