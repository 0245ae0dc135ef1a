(* "lower omp loops to HLS" (paper, Section 3): runs on the device module.

   - Inserts hls.interface operations mapping each kernel argument onto an
     AXI port: array arguments get their own m_axi bundle (gmem0, gmem1,
     ...), scalar (rank-0) arguments go over s_axilite, as in Listing 4.
   - omp.parallel_do becomes an scf.for nest whose innermost body starts
     with hls.pipeline(II=1); the simd clause adds hls.unroll(simdlen) —
     partial unrolling, the FPGA sweet spot the paper describes.
   - The reduction clause is rewritten into n copies of the reduction
     variable updated round-robin (copy index = iv mod n) so consecutive
     loop iterations do not wait on the floating-point add latency; the
     copies are combined after the loop. n is chosen statically from the
     reduced datatype. *)

open Ftn_ir
open Ftn_dialects

type options = {
  pipeline_ii : int;
  copies_f32 : int;
  copies_f64 : int;
  copies_int : int;
}

let default_options =
  { pipeline_ii = 1; copies_f32 = 8; copies_f64 = 12; copies_int = 4 }

let reduction_copies opts ty =
  match ty with
  | Types.F64 -> opts.copies_f64
  | Types.F32 -> opts.copies_f32
  | _ -> opts.copies_int

let identity_attr kind ty =
  let neg_inf = -.Float.infinity and pos_inf = Float.infinity in
  match (kind, ty) with
  | Omp.Red_add, (Types.F32 | Types.F64) -> Attr.Float (0.0, ty)
  | Omp.Red_add, _ -> Attr.Int (0, ty)
  | Omp.Red_mul, (Types.F32 | Types.F64) -> Attr.Float (1.0, ty)
  | Omp.Red_mul, _ -> Attr.Int (1, ty)
  | Omp.Red_max, (Types.F32 | Types.F64) -> Attr.Float (neg_inf, ty)
  | Omp.Red_max, _ -> Attr.Int (min_int / 2, ty)
  | Omp.Red_min, (Types.F32 | Types.F64) -> Attr.Float (pos_inf, ty)
  | Omp.Red_min, _ -> Attr.Int (max_int / 2, ty)

let combine_op b kind a c =
  match (kind, Types.is_float (Value.ty a)) with
  | Omp.Red_add, true -> Arith.addf b ~fastmath:true a c
  | Omp.Red_add, false -> Arith.addi b a c
  | Omp.Red_mul, true -> Arith.mulf b ~fastmath:true a c
  | Omp.Red_mul, false -> Arith.muli b a c
  | Omp.Red_max, true -> Arith.maxf b a c
  | Omp.Red_max, false -> Arith.maxsi b a c
  | Omp.Red_min, true -> Arith.minf b a c
  | Omp.Red_min, false -> Arith.minsi b a c

(* --- interface insertion --- *)

let insert_interfaces b fn =
  if not (Func_d.has_body fn) then fn
  else begin
    let args = Func_d.params fn in
    let gmem = ref 0 in
    let iface_ops =
      List.concat_map
        (fun arg ->
          match Value.ty arg with
          | Types.Memref { shape = _ :: _; _ } ->
            let bundle = Fmt.str "gmem%d" !gmem in
            incr gmem;
            let kind =
              Arith.const_i32 b (Hls.int_of_protocol Hls.M_axi)
            in
            let proto = Hls.axi_protocol b (Op.result1 kind) in
            [
              kind;
              proto;
              Hls.interface ~arg ~protocol:(Op.result1 proto) ~bundle;
            ]
          | Types.Memref { shape = []; _ } ->
            let kind =
              Arith.const_i32 b (Hls.int_of_protocol Hls.S_axilite)
            in
            let proto = Hls.axi_protocol b (Op.result1 kind) in
            [
              kind;
              proto;
              Hls.interface ~arg ~protocol:(Op.result1 proto)
                ~bundle:"control";
            ]
          | _ -> [])
        args
    in
    if iface_ops = [] then fn
    else
      let blk = Op.region_block fn 0 in
      {
        fn with
        Op.regions = [ [ { blk with Op.body = iface_ops @ blk.Op.body } ] ];
      }
  end

(* --- parallel_do lowering --- *)

let strip_omp_yield ops =
  List.filter (fun o -> not (String.equal (Op.name o) "omp.yield")) ops

let lower_parallel_do b opts op =
  match Omp.loop_parts op with
  | None -> [ op ]
  | Some parts ->
    let innermost_iv = List.nth parts.Omp.ivs (List.length parts.Omp.ivs - 1) in
    (* reduction prologue: n-copy buffers *)
    let pre_ops = ref [] in
    let post_ops = ref [] in
    let emit_pre o = pre_ops := o :: !pre_ops in
    let emit_pre_get o =
      emit_pre o;
      Op.result1 o
    in
    let red_infos =
      List.map
        (fun (kind, acc) ->
          let elt =
            match Value.ty acc with
            | Types.Memref { elt; _ } -> elt
            | other -> other
          in
          let n = reduction_copies opts elt in
          let copies_ty = Types.memref_static [ n ] elt in
          let copies = emit_pre_get (Memref_d.alloca b copies_ty) in
          emit_pre
            (Hls.array_partition ~array:copies ~kind:"complete" ~factor:n);
          (* copies[0] = incoming accumulator; the rest the identity *)
          let acc0 = emit_pre_get (Memref_d.load b acc []) in
          let zero = emit_pre_get (Arith.const_index b 0) in
          emit_pre (Memref_d.store acc0 copies [ zero ]);
          let ident =
            emit_pre_get (Arith.constant b (identity_attr kind elt) elt)
          in
          for i = 1 to n - 1 do
            let idx = emit_pre_get (Arith.const_index b i) in
            emit_pre (Memref_d.store ident copies [ idx ])
          done;
          (kind, acc, copies, n))
        parts.Omp.reduction_accs
    in
    (* body rewrite: redirect accumulator accesses into the copies *)
    let body = strip_omp_yield parts.Omp.loop_body in
    let body, mod_ops =
      if red_infos = [] then (body, [])
      else begin
        let n0 = match red_infos with (_, _, _, n) :: _ -> n | [] -> 1 in
        let n_const = Arith.const_index b n0 in
        let slot = Arith.remsi b innermost_iv (Op.result1 n_const) in
        let slot_v = Op.result1 slot in
        let rewrite_acc op =
          match Op.name op with
          | "memref.load" -> (
            match Op.operands op with
            | [ mr ] -> (
              match
                List.find_opt (fun (_, acc, _, _) -> Value.equal acc mr) red_infos
              with
              | Some (_, _, copies, _) ->
                [ { op with Op.operands = [ copies; slot_v ] } ]
              | None -> [ op ])
            | _ -> [ op ])
          | "memref.store" -> (
            match Op.operands op with
            | [ v; mr ] -> (
              match
                List.find_opt (fun (_, acc, _, _) -> Value.equal acc mr) red_infos
              with
              | Some (_, _, copies, _) ->
                [ { op with Op.operands = [ v; copies; slot_v ] } ]
              | None -> [ op ])
            | _ -> [ op ])
          | _ -> [ op ]
        in
        let body =
          List.concat_map
            (fun o -> List.concat_map rewrite_acc [ o ])
            body
        in
        (body, [ n_const; slot ])
      end
    in
    (* reduction epilogue: fold the copies into the accumulator *)
    List.iter
      (fun (kind, acc, copies, n) ->
        let ops = ref [] in
        let emit o = ops := o :: !ops in
        let emit_get o =
          emit o;
          Op.result1 o
        in
        let zero = emit_get (Arith.const_index b 0) in
        let first = emit_get (Memref_d.load b copies [ zero ]) in
        let total = ref first in
        for i = 1 to n - 1 do
          let idx = emit_get (Arith.const_index b i) in
          let v = emit_get (Memref_d.load b copies [ idx ]) in
          total := emit_get (combine_op b kind !total v)
        done;
        emit (Memref_d.store !total acc []);
        post_ops := !post_ops @ List.rev !ops)
      red_infos;
    (* directives at the head of the innermost body *)
    let ii_const = Arith.const_i32 b opts.pipeline_ii in
    let directives = [ ii_const; Hls.pipeline (Op.result1 ii_const) ] in
    let directives =
      match (parts.Omp.simd, parts.Omp.simdlen) with
      | true, Some k ->
        let f = Arith.const_i32 b k in
        directives @ [ f; Hls.unroll (Op.result1 f) ]
      | true, None ->
        let f = Arith.const_i32 b 4 in
        directives @ [ f; Hls.unroll (Op.result1 f) ]
      | false, _ -> directives
    in
    (* build the scf.for nest, outermost first *)
    let rec build_nest lbs ubs steps ivs =
      match (lbs, ubs, steps, ivs) with
      | [ lb ], [ ub ], [ step ], [ iv ] ->
        let one = Arith.const_index b 1 in
        let ub_excl = Arith.addi b ub (Op.result1 one) in
        let inner_body =
          directives @ mod_ops @ body @ [ Scf.yield () ]
        in
        let for_op =
          Op.make "scf.for"
            ~operands:[ lb; Op.result1 ub_excl; step ]
            ~regions:[ Op.region ~args:[ iv ] inner_body ]
        in
        [ one; ub_excl; for_op ]
      | lb :: lbs, ub :: ubs, step :: steps, iv :: ivs ->
        let one = Arith.const_index b 1 in
        let ub_excl = Arith.addi b ub (Op.result1 one) in
        let inner = build_nest lbs ubs steps ivs in
        let for_op =
          Op.make "scf.for"
            ~operands:[ lb; Op.result1 ub_excl; step ]
            ~regions:[ Op.region ~args:[ iv ] (inner @ [ Scf.yield () ]) ]
        in
        [ one; ub_excl; for_op ]
      | _ ->
        raise
          (Ftn_diag.Diag.Diag_failure
             [
               Ftn_diag.Diag.error ~loc:(Op.loc op)
                 "'omp.parallel_do': bound/induction-variable rank mismatch";
             ])
    in
    let nest =
      build_nest parts.Omp.lbs parts.Omp.ubs parts.Omp.steps parts.Omp.ivs
    in
    List.rev !pre_ops @ nest @ !post_ops

let patterns options =
  [
    Rewrite.pattern ~roots:[ "omp.parallel_do" ] "parallel-do-to-scf-for"
      (fun ctx op ->
        match Omp.loop_parts op with
        | None -> None
        | Some _ ->
          Some
            (Rewrite.replace_with
               (lower_parallel_do (Rewrite.builder ctx) options op)));
    Rewrite.pattern ~roots:[ "func.func" ] "insert-hls-interfaces"
      (fun ctx fn ->
        (* func.func keeps its name across the rewrite: fire only once, on
           functions with a body and ports but no interfaces yet. *)
        if
          (not (Func_d.has_body fn))
          || Op.exists (fun o -> String.equal (Op.name o) "hls.interface") fn
        then None
        else
          let fn' = insert_interfaces (Rewrite.builder ctx) fn in
          if fn' == fn then None else Some (Rewrite.replace_with [ fn' ]));
  ]

let run ?(options = default_options) m = Rewrite.apply (patterns options) m

let pass ?options () =
  Pass.make "lower-omp-loops-to-hls" (fun m -> run ?options m)
