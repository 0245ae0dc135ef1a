(* FIR -> core dialect lowering, mirroring the flow of [Brown, SC24-W]
   ("Fully integrating the Flang Fortran compiler with standard MLIR"):
   fir.alloca/load/store become memref ops, fir.do_loop/if become scf ops
   (converting Fortran's inclusive upper bound), fir.declare folds away and
   fir.convert expands to the matching arith casts. omp operations pass
   through untouched, as in the paper. *)

open Ftn_ir
open Ftn_dialects

let lookup subst v =
  match Hashtbl.find_opt subst (Value.id v) with
  | Some v' -> Some v'
  | None -> None

let resolve subst v = match lookup subst v with Some v' -> v' | None -> v

(* Emit the arith ops converting [v] to [ty]; returns (ops, result). *)
let build_convert b v ty =
  let src = Value.ty v in
  if Types.equal src ty then ([], v)
  else
    let one cast =
      let op = Arith.cast b cast v ty in
      ([ op ], Op.result1 op)
    in
    match (src, ty) with
    | Types.Index, (Types.I32 | Types.I64) | (Types.I32 | Types.I64), Types.Index
      ->
      one Index_cast
    | Types.I1, (Types.I32 | Types.I64) -> one Extui
    | Types.I32, Types.I64 -> one Extsi
    | Types.I64, Types.I32 -> one Trunci
    | (Types.I32 | Types.I64), (Types.F32 | Types.F64) -> one Sitofp
    | Types.Index, (Types.F32 | Types.F64) ->
      let cast = Arith.index_cast b v Types.I64 in
      let conv = Arith.sitofp b (Op.result1 cast) ty in
      ([ cast; conv ], Op.result1 conv)
    | (Types.F32 | Types.F64), (Types.I32 | Types.I64) -> one Fptosi
    | (Types.F32 | Types.F64), Types.Index ->
      let conv = Arith.fptosi b v Types.I64 in
      let cast = Arith.index_cast b (Op.result1 conv) ty in
      ([ conv; cast ], Op.result1 cast)
    | Types.F32, Types.F64 -> one Extf
    | Types.F64, Types.F32 -> one Truncf
    | _ ->
      invalid_arg
        (Fmt.str "fir.convert: unsupported conversion %s -> %s"
           (Types.to_string src) (Types.to_string ty))

let rec transform_ops b subst ops = List.concat_map (transform_op b subst) ops

and transform_regions b subst op =
  {
    op with
    Op.regions =
      List.map
        (fun blocks ->
          List.map
            (fun blk -> { blk with Op.body = transform_ops b subst blk.Op.body })
            blocks)
        op.Op.regions;
  }

and transform_op b subst op =
  let op =
    { op with Op.operands = List.map (resolve subst) op.Op.operands }
  in
  match Op.name op with
  | "fir.declare" ->
    (* identity at this level: forward the operand *)
    Hashtbl.replace subst (Value.id (Op.result1 op)) (List.hd (Op.operands op));
    []
  | "fir.alloca" ->
    [ Op.set_loc { op with Op.name = "memref.alloca"; attrs = [] } (Op.loc op) ]
  | "fir.load" -> [ { op with Op.name = "memref.load" } ]
  | "fir.store" -> [ { op with Op.name = "memref.store" } ]
  | "fir.result" -> [ { op with Op.name = "scf.yield" } ]
  | "fir.call" -> [ transform_regions b subst { op with Op.name = "func.call" } ]
  | "fir.convert" ->
    let v = List.hd (Op.operands op) in
    let ty = Value.ty (Op.result1 op) in
    let ops, result = build_convert b v ty in
    Hashtbl.replace subst (Value.id (Op.result1 op)) result;
    List.map (fun o -> Op.set_loc o (Op.loc op)) ops
  | "fir.do_loop" -> (
    let op = transform_regions b subst op in
    match Op.operands op with
    | [ lb; ub; step ] ->
      let loc = Op.loc op in
      let one = Op.set_loc (Arith.const_index b 1) loc in
      let ub_excl = Op.set_loc (Arith.addi b ub (Op.result1 one)) loc in
      [
        one;
        ub_excl;
        Op.set_loc
          {
            op with
            Op.name = "scf.for";
            operands = [ lb; Op.result1 ub_excl; step ];
            attrs = [];
          }
          loc;
      ]
    | _ -> invalid_arg "fir.do_loop must have 3 operands")
  | "fir.if" -> [ transform_regions b subst { op with Op.name = "scf.if" } ]
  | _ -> [ transform_regions b subst op ]

let run m =
  let b = Builder.for_op m in
  let subst = Hashtbl.create 64 in
  match transform_op b subst m with
  | [ m' ] -> m'
  | _ -> invalid_arg "Fir_to_core.run: module was not preserved"

let pass = Pass.make "fir-to-core" run
