(* Property-based tests (qcheck): structural invariants of the IR,
   semantic equivalences of the passes, runtime invariants of the data
   environment, and numerical agreement between the compiled pipeline and
   the OCaml references on randomised inputs. *)

open Ftn_ir
open Ftn_dialects

let count = 100

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- generators --- *)

let scalar_type_gen =
  QCheck.Gen.oneofl [ Types.I1; Types.I32; Types.I64; Types.Index; Types.F32; Types.F64 ]

let type_gen =
  let open QCheck.Gen in
  let base = scalar_type_gen in
  let memref =
    let* elt = oneofl [ Types.F32; Types.F64; Types.I32 ] in
    let* space = oneofl [ 0; 1; 2 ] in
    let* dims = list_size (int_range 0 3) (oneof [ map (fun n -> Types.Static (n + 1)) (int_range 0 63); return Types.Dynamic ]) in
    return (Types.Memref { Types.shape = dims; elt; memory_space = space })
  in
  oneof [ base; memref;
          map (fun t -> Types.Ptr t) base;
          map (fun t -> Types.Stream t) base;
          return Types.Kernel_handle; return Types.Axi_protocol ]

let type_roundtrip =
  QCheck.Test.make ~count ~name:"type print/parse round-trips"
    (QCheck.make type_gen ~print:Types.to_string)
    (fun ty ->
      Types.equal ty (Ir_parser.parse_type_string (Types.to_string ty)))

let attr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Attr.i32 n) (int_range (-1000) 1000);
        map (fun x -> Attr.f64 x) (float_bound_inclusive 1e6);
        map (fun s -> Attr.String s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        map (fun s -> Attr.Symbol ("s" ^ s)) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
        map (fun b -> Attr.Bool b) bool;
        return Attr.Unit;
      ]
  in
  oneof [ leaf; map (fun xs -> Attr.Array xs) (list_size (int_range 0 4) leaf) ]

(* Attributes round-trip through the op parser when attached to an op. *)
let attr_roundtrip =
  QCheck.Test.make ~count ~name:"attrs survive print/parse on an op"
    (QCheck.make attr_gen ~print:Attr.to_string)
    (fun attr ->
      let op = Op.make "test.op" ~attrs:[ ("k", attr) ] in
      let m = Op.module_op [ op ] in
      let m' = Ir_parser.parse_module (Printer.to_string m) in
      let op' = List.hd (Op.module_body m') in
      match Op.find_attr op' "k" with
      | Some a -> Attr.equal a attr
      | None -> false)

(* Random straight-line arith programs round-trip through the printer. *)
let arith_module_gen =
  let open QCheck.Gen in
  let* seed_ops = int_range 1 12 in
  return
    (let b = Builder.create () in
     let pool = ref [] in
     let ops = ref [] in
     let emit op =
       ops := op :: !ops;
       pool := Op.result1 op :: !pool
     in
     emit (Arith.const_i32 b 1);
     emit (Arith.const_i32 b 2);
     for i = 0 to seed_ops - 1 do
       let x = List.nth !pool (i mod List.length !pool) in
       let y = List.hd !pool in
       emit (if i mod 3 = 0 then Arith.addi b x y
             else if i mod 3 = 1 then Arith.muli b x y
             else Arith.subi b x y)
     done;
     Op.module_op
       [ Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
           (List.rev (Func_d.return () :: !ops)) ])

let module_roundtrip =
  QCheck.Test.make ~count:50 ~name:"random modules round-trip textually"
    (QCheck.make arith_module_gen ~print:Printer.to_string)
    (fun m ->
      let text = Printer.to_string m in
      String.equal text (Printer.to_string (Ir_parser.parse_module text)))

(* Constant folding preserves semantics: evaluate the last value both ways. *)
let fold_preserves_semantics =
  QCheck.Test.make ~count:50 ~name:"canonicalise preserves interpreted results"
    (QCheck.make arith_module_gen ~print:Printer.to_string)
    (fun m ->
      (* rewrite f to return its last defined value *)
      let fn = List.hd (Op.module_body m) in
      let body = Ftn_dialects.Func_d.body fn in
      let last_val =
        List.rev body
        |> List.find_map (fun o ->
               match Op.results o with [ r ] -> Some r | _ -> None)
      in
      match last_val with
      | None -> true
      | Some r ->
        let body' =
          List.filter (fun o -> not (Func_d.is_return o)) body
          @ [ Func_d.return ~operands:[ r ] () ]
        in
        let fn' =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[ Value.ty r ] body'
        in
        let m = Op.module_op [ fn' ] in
        let interp_of mm =
          let state = Ftn_interp.Interp.make [ mm ] in
          Ftn_interp.Interp.run state ~entry:"f" ~args:[]
        in
        interp_of m = interp_of (Ftn_passes.Canonicalize.run m))

(* Verifier accepts everything the frontend + passes produce. *)
let do_loop_program_gen =
  let open QCheck.Gen in
  let* n = int_range 1 30 in
  let* lb = int_range 1 5 in
  let* step = int_range 1 3 in
  return (n, lb, step)

let frontend_loops_verify =
  QCheck.Test.make ~count:30 ~name:"random do-loop programs verify and sum correctly"
    (QCheck.make do_loop_program_gen ~print:(fun (n, lb, s) ->
         Printf.sprintf "n=%d lb=%d step=%d" n lb s))
    (fun (n, lb, step) ->
      let src =
        Printf.sprintf
          "program p\ninteger :: i, s\ns = 0\ndo i = %d, %d, %d\ns = s + i\nend do\nprint *, s\nend program"
          lb n step
      in
      let m = Ftn_frontend.Frontend.to_core_verified src in
      let out, _ = Ftn_runtime.Executor.run_cpu m in
      let expect = ref 0 in
      let i = ref lb in
      while !i <= n do
        expect := !expect + !i;
        i := !i + step
      done;
      Astring_like.contains out (string_of_int !expect))

(* Data environment refcount invariant under random action sequences. *)
let refcount_invariant =
  QCheck.Test.make ~count ~name:"data env refcount matches a trivial model"
    QCheck.(list_of_size (Gen.int_range 0 40) (QCheck.make (QCheck.Gen.int_range 0 2)))
    (fun actions ->
      let env = Ftn_runtime.Data_env.create () in
      let v = Ftn_runtime.Data_env.key ~name:"v" ~memory_space:1 in
      let model = ref 0 in
      List.for_all
        (fun action ->
          (match action with
          | 0 ->
            Ftn_runtime.Data_env.acquire env v;
            model := !model + 1
          | 1 ->
            Ftn_runtime.Data_env.release env v;
            model := max 0 (!model - 1)
          | _ -> ());
          Ftn_runtime.Data_env.refcount env v = !model
          && Ftn_runtime.Data_env.exists env v
             = (!model > 0))
        actions)

(* Buffer linearisation: store then load through random valid indices. *)
let buffer_roundtrip =
  let gen =
    let open QCheck.Gen in
    let* dims = list_size (int_range 1 3) (int_range 1 6) in
    let* indices = return (List.map (fun d -> Random.int d) dims) in
    return (dims, indices)
  in
  QCheck.Test.make ~count ~name:"buffer store/load round-trips at any index"
    (QCheck.make gen ~print:(fun (d, i) ->
         Printf.sprintf "dims=[%s] idx=[%s]"
           (String.concat ";" (List.map string_of_int d))
           (String.concat ";" (List.map string_of_int i))))
    (fun (dims, indices) ->
      let buf = Ftn_interp.Rtval.alloc_buffer Types.F64 dims in
      Ftn_interp.Rtval.store buf indices (Ftn_interp.Rtval.Float 3.25);
      Ftn_interp.Rtval.load buf indices = Ftn_interp.Rtval.Float 3.25)

(* Scheduler: more unroll never increases per-element cycles. *)
let unroll_monotonicity =
  QCheck.Test.make ~count:20 ~name:"unroll never slows a pipelined loop down"
    QCheck.(pair (QCheck.make (QCheck.Gen.int_range 1 16)) (QCheck.make (QCheck.Gen.int_range 1 16)))
    (fun (u1, u2) ->
      let u_lo = min u1 u2 and u_hi = max u1 u2 in
      let spec = Ftn_hlsim.Fpga_spec.u280 in
      let cycles_for unroll =
        let src =
          Printf.sprintf
            "program p\nreal :: x(64), y(64)\ninteger :: i\n!$omp target parallel do simd simdlen(%d)\ndo i = 1, 64\ny(i) = y(i) + 2.0 * x(i)\nend do\n!$omp end target parallel do simd\nend program"
            unroll
        in
        let art = Core.Compiler.compile src in
        match art.Core.Compiler.device_hls with
        | Some d ->
          let fn =
            List.find
              (fun o -> Func_d.is_func o && Func_d.has_body o)
              (Op.module_body d)
          in
          let ks = Ftn_hlsim.Schedule.analyse_kernel spec fn in
          (List.hd (Ftn_hlsim.Schedule.flatten_loops ks.Ftn_hlsim.Schedule.loops))
            .Ftn_hlsim.Schedule.cycles_per_iteration
        | None -> infinity
      in
      cycles_for u_hi <= cycles_for u_lo +. 1e-9)

(* The compiled SAXPY agrees with the reference for random a and n. *)
let saxpy_random_agreement =
  let gen =
    let open QCheck.Gen in
    let* n = int_range 1 64 in
    let* a = float_bound_inclusive 8.0 in
    return (n, a)
  in
  QCheck.Test.make ~count:15 ~name:"compiled saxpy matches reference on random inputs"
    (QCheck.make gen ~print:(fun (n, a) -> Printf.sprintf "n=%d a=%f" n a))
    (fun (n, a) ->
      let src =
        Printf.sprintf
          "program p\nreal :: x(%d), y(%d)\nreal :: a\ninteger :: i\na = %f\ndo i = 1, %d\nx(i) = real(i) * 0.5\ny(i) = real(%d - i) * 0.25\nend do\n!$omp target parallel do simd simdlen(4) map(to:x) map(tofrom:y)\ndo i = 1, %d\ny(i) = y(i) + a * x(i)\nend do\n!$omp end target parallel do simd\nend program"
          n n a n n n
      in
      let run = Core.Run.run src in
      let x, y = Ftn_linpack.References.saxpy_inputs ~n in
      let a32 = Ftn_linpack.References.to_f32 a in
      Ftn_linpack.References.saxpy ~a:a32 ~x ~y;
      match Core.Run.device_floats run ~name:"y" with
      | Some got ->
        Array.for_all
          (fun ok -> ok)
          (Array.mapi (fun i v -> Float.abs (v -. y.(i)) <= 1e-5 *. (1.0 +. Float.abs y.(i))) got)
      | None -> false)

(* OpenACC and OpenMP spellings of the same offload agree exactly. *)
let acc_omp_equivalence =
  let gen =
    let open QCheck.Gen in
    let* n = int_range 1 48 in
    let* simdlen = oneofl [ 1; 2; 4; 10 ] in
    return (n, simdlen)
  in
  QCheck.Test.make ~count:12 ~name:"acc and omp produce identical kernels and results"
    (QCheck.make gen ~print:(fun (n, s) -> Printf.sprintf "n=%d simdlen=%d" n s))
    (fun (n, simdlen) ->
      let body =
        Printf.sprintf
          "do i = 1, %d\ny(i) = y(i) + a * x(i)\nend do" n
      in
      let prologue =
        Printf.sprintf
          "real :: x(%d), y(%d)\nreal :: a\ninteger :: i\na = 2.0\ndo i = 1, %d\nx(i) = real(i) * 0.5\ny(i) = real(%d - i) * 0.25\nend do"
          n n n n
      in
      let omp_src =
        Printf.sprintf
          "program p\n%s\n!$omp target parallel do simd simdlen(%d) map(to:x) map(tofrom:y)\n%s\n!$omp end target parallel do simd\nend program"
          prologue simdlen body
      in
      let acc_src =
        Printf.sprintf
          "program p\n%s\n!$acc parallel loop copyin(x) copy(y) vector_length(%d)\n%s\n!$acc end parallel loop\nend program"
          prologue simdlen body
      in
      let run src = Core.Run.run src in
      let a = run omp_src and b = run acc_src in
      let ya = Option.get (Core.Run.device_floats a ~name:"y") in
      let yb = Option.get (Core.Run.device_floats b ~name:"y") in
      Array.for_all2 (fun p q -> p = q) ya yb
      && Float.abs (Core.Run.kernel_time a -. Core.Run.kernel_time b) < 1e-12)

(* Measurement harness statistics. *)
let measure_props =
  QCheck.Test.make ~count ~name:"measure: median close to truth, std bounded"
    QCheck.(pair pos_int (QCheck.make (QCheck.Gen.float_range 1e-4 1.0)))
    (fun (seed, duration) ->
      let s = Core.Measure.measure ~runs:10 ~seed ~jitter_s:25e-6 duration in
      Float.abs (s.Core.Measure.median -. duration) < 1e-4
      && s.Core.Measure.std >= 0.0
      && s.Core.Measure.std < 1e-3)

(* Clone never changes op counts or names. *)
let clone_preserves_structure =
  QCheck.Test.make ~count:50 ~name:"clone preserves structure"
    (QCheck.make arith_module_gen ~print:Printer.to_string)
    (fun m ->
      let b = Builder.for_op m in
      let m', _ = Builder.clone b m in
      Op.count (fun _ -> true) m = Op.count (fun _ -> true) m'
      &&
      let names mm =
        Op.fold (fun acc o -> Op.name o :: acc) [] mm
      in
      names m = names m')

(* --- rewrite engine properties --- *)

(* The rewrite engine stops at a true fixpoint on random arith modules:
   applying the same patterns and config to its own output fires, folds
   and erases nothing, and prints byte-identically. Three pattern sets:
   the canonicalisation config alone (fold + dead-op elimination), or
   pure rename patterns with folding and erasure off. *)
let rewrite_fixpoint =
  let rename from into =
    Rewrite.pattern ~roots:[ from ] (from ^ "->" ^ into) (fun _ op ->
        Some (Rewrite.replace_with [ { op with Op.name = into } ]))
  in
  let gen =
    let open QCheck.Gen in
    let* m = arith_module_gen in
    let* mode = int_range 0 2 in
    return (m, mode)
  in
  QCheck.Test.make ~count:50 ~name:"rewrite reaches a fixpoint"
    (QCheck.make gen ~print:(fun (m, mode) ->
         Printf.sprintf "mode=%d\n%s" mode (Printer.to_string m)))
    (fun (m, mode) ->
      let pats, config =
        match mode with
        | 0 -> ([], Ftn_passes.Canonicalize.config)
        | _ ->
          ( (if mode = 1 then [ rename "arith.subi" "arith.addi" ] else [])
            @ [ rename "arith.muli" "test.opaque_mul" ],
            {
              Rewrite.default_config with
              Rewrite.fold = None;
              is_trivially_dead = (fun _ -> false);
            } )
      in
      let once = Rewrite.apply ~config pats m in
      let twice, st = Rewrite.apply_with_stats ~config pats once in
      st.Rewrite.patterns_fired = 0
      && st.Rewrite.ops_folded = 0
      && st.Rewrite.ops_erased = 0
      && String.equal (Printer.to_string once) (Printer.to_string twice))

(* Substitution cycles of any length — pattern i redirects result i to
   result (i+1) mod k — are detected and reported as a located diagnostic
   naming a pattern, never an infinite loop. *)
let cycle_detection =
  QCheck.Test.make ~count:30 ~name:"substitution cycles raise a diagnostic"
    (QCheck.make (QCheck.Gen.int_range 2 5) ~print:(Printf.sprintf "k=%d"))
    (fun k ->
      let b = Builder.create () in
      let ops =
        List.init k (fun i ->
            Op.make (Printf.sprintf "test.n%d" i)
              ~results:[ Builder.fresh b Types.I32 ])
      in
      let results = List.map Op.result1 ops in
      let use = Op.make "test.use" ~operands:results in
      let fn =
        Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
          (ops @ [ use; Func_d.return () ])
      in
      let pats =
        List.mapi
          (fun i op ->
            let next = List.nth results ((i + 1) mod k) in
            Rewrite.pattern
              ~roots:[ Op.name op ]
              (Printf.sprintf "cycle-%d" i)
              (fun _ o ->
                Some
                  (Rewrite.replace_with
                     ~replacements:[ (Op.result1 o, next) ]
                     [ { o with Op.name = Op.name o ^ "'" } ])))
          ops
      in
      match Rewrite.apply pats (Op.module_op [ fn ]) with
      | _ -> false
      | exception Ftn_diag.Diag.Diag_failure (d :: _) ->
        Astring_like.contains d.Ftn_diag.Diag.message "substitution cycle")

(* The driver fold hook preserves semantics: folding + DCE leaves the
   interpreted result of the function unchanged. *)
let fold_matches_interp =
  QCheck.Test.make ~count:50 ~name:"driver folding preserves interpreted results"
    (QCheck.make arith_module_gen ~print:Printer.to_string)
    (fun m ->
      let fn = List.hd (Op.module_body m) in
      let body = Func_d.body fn in
      let last_val =
        List.rev body
        |> List.find_map (fun o ->
               match Op.results o with [ r ] -> Some r | _ -> None)
      in
      match last_val with
      | None -> true
      | Some r ->
        let body' =
          List.filter (fun o -> not (Func_d.is_return o)) body
          @ [ Func_d.return ~operands:[ r ] () ]
        in
        let fn' =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[ Value.ty r ] body'
        in
        let m = Op.module_op [ fn' ] in
        let interp_of mm =
          let state = Ftn_interp.Interp.make [ mm ] in
          Ftn_interp.Interp.run state ~entry:"f" ~args:[]
        in
        let folded =
          Rewrite.apply ~config:Ftn_passes.Canonicalize.config [] m
        in
        interp_of m = interp_of folded)

(* Budget exhaustion is observable: a pattern that never stops firing
   trips the rewrite.nonconverged counter and emits a warning on the
   default diagnostics engine naming the last pattern that fired. *)
let nonconvergence_reported =
  QCheck.Test.make ~count:20 ~name:"nonconvergence bumps metric and warns"
    (QCheck.make (QCheck.Gen.int_range 1 4) ~print:(Printf.sprintf "iters=%d"))
    (fun iters ->
      let spin =
        Rewrite.pattern ~roots:[ "test.spin" ] "spin-forever" (fun _ _ ->
            Some (Rewrite.replace_with [ Op.make "test.spin" ]))
      in
      let fn =
        Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
          [ Op.make "test.spin"; Func_d.return () ]
      in
      let eng = Ftn_diag.Diag_engine.default in
      let warnings0 = Ftn_diag.Diag_engine.warning_count eng in
      let metric0 =
        Ftn_obs.Metrics.counter_value "rewrite.nonconverged"
      in
      let _, stats =
        Rewrite.apply_with_stats
          ~config:{ Rewrite.default_config with max_iterations = iters }
          [ spin ] (Op.module_op [ fn ])
      in
      (not stats.Rewrite.converged)
      && Ftn_obs.Metrics.counter_value "rewrite.nonconverged" > metric0
      && Ftn_diag.Diag_engine.warning_count eng > warnings0
      &&
      let last_warning =
        List.hd (List.rev (Ftn_diag.Diag_engine.warnings eng))
      in
      Astring_like.contains last_warning.Ftn_diag.Diag.message "spin-forever")

(* Over-releasing device data no longer hides silently: every release of
   an entry with refcount 0 (or never acquired) bumps the
   data_env.over_release metric and warns on the default engine. *)
let over_release_reported =
  QCheck.Test.make ~count ~name:"over-release warns and bumps its metric"
    QCheck.(
      list_of_size (Gen.int_range 0 40) (QCheck.make (QCheck.Gen.int_range 0 2)))
    (fun actions ->
      let env = Ftn_runtime.Data_env.create () in
      let v = Ftn_runtime.Data_env.key ~name:"v" ~memory_space:1 in
      let model = ref 0 in
      let overs = ref 0 in
      let metric0 =
        Ftn_obs.Metrics.counter_value "data_env.over_release"
      in
      let warnings0 =
        Ftn_diag.Diag_engine.warning_count Ftn_diag.Diag_engine.default
      in
      List.iter
        (fun action ->
          match action with
          | 0 ->
            Ftn_runtime.Data_env.acquire env v;
            incr model
          | 1 ->
            Ftn_runtime.Data_env.release env v;
            if !model = 0 then incr overs else decr model
          | _ -> ())
        actions;
      Ftn_obs.Metrics.counter_value "data_env.over_release" - metric0 = !overs
      && Ftn_diag.Diag_engine.warning_count Ftn_diag.Diag_engine.default
         - warnings0
         >= !overs)

(* Differential testing of the two interpreter engines: random programs
   over i32, index, i1, f32 and f64 values — integer and float arith,
   casts, compares, select, scf.if and scf.for carrying mixed types,
   scf.while carrying an i32 counter, memref.alloca of rank 0-2 and a
   call to a mixed-type helper — must produce identical results (floats
   compared by bit pattern) AND identical step counts under the
   tree-walker and the closure compiler, run in full and stopped by a
   step limit. *)

(* 0.1 and -0.3 are changed by f32 rounding; 3.0e7 is not f32-exact
   after arithmetic. *)
let interp_float_consts = [| 0.1; 1.5; -2.25; 3.0e7; 1e-3; 0.0; 7.0; -0.3 |]

(* helper(i32, f32, i1, index) -> (f32, i1, i32) *)
let interp_helper b =
  let pi = Builder.fresh b Types.I32 and pf = Builder.fresh b Types.F32 in
  let pb = Builder.fresh b Types.I1 and px = Builder.fresh b Types.Index in
  let xi = Arith.index_cast b px Types.I32 in
  let s = Arith.addi b pi (Op.result1 xi) in
  let fi = Arith.sitofp b (Op.result1 s) Types.F32 in
  let m = Arith.mulf b pf (Op.result1 fi) in
  let sel = Arith.select b pb (Op.result1 m) pf in
  let c = Arith.cmpf b Arith.Olt (Op.result1 sel) pf in
  let nb = Arith.xori b pb (Op.result1 c) in
  Func_d.func ~sym_name:"helper" ~args:[ pi; pf; pb; px ]
    ~result_tys:[ Types.F32; Types.I1; Types.I32 ]
    [ xi; s; fi; m; sel; c; nb;
      Func_d.return
        ~operands:[ Op.result1 sel; Op.result1 nb; Op.result1 s ] () ]

let interp_program choices =
  let b = Builder.create () in
  let helper = interp_helper b in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let i32s = ref [] and idxs = ref [] and f32s = ref [] in
  let f64s = ref [] and f16s = ref [] and i1s = ref [] in
  let pool_of ty =
    match ty with
    | Types.I32 -> i32s
    | Types.Index -> idxs
    | Types.F32 -> f32s
    | Types.F64 -> f64s
    | Types.F16 -> f16s
    | Types.I1 -> i1s
    | _ -> invalid_arg "interp_program: no pool"
  in
  let add v = let p = pool_of (Value.ty v) in p := v :: !p in
  let emit_val op =
    emit op;
    List.iter add (Op.results op)
  in
  (* emit a helper op and return its value without pooling it *)
  let tmp op =
    emit op;
    Op.result1 op
  in
  let pick pool k = List.nth !pool (k mod List.length !pool) in
  let float_of k = interp_float_consts.(k mod Array.length interp_float_consts) in
  let fty k = if k mod 2 = 0 then Types.F32 else Types.F64 in
  let fpool k = if k mod 2 = 0 then f32s else f64s in
  let index k = tmp (Arith.const_index b k) in
  emit_val (Arith.const_i32 b 3);
  emit_val (Arith.const_i32 b 5);
  emit_val (Arith.const_index b 2);
  emit_val (Arith.const_f32 b 0.1);
  emit_val (Arith.const_f64 b 0.1);
  emit_val (Arith.const_float b 0.1 Types.F16);
  emit_val (Arith.const_bool b true);
  List.iter
    (fun (kind, (a, c)) ->
      match kind with
      | 0 -> emit_val (Arith.addi b (pick i32s a) (pick i32s c))
      | 1 -> emit_val (Arith.muli b (pick i32s a) (pick i32s c))
      | 2 -> emit_val (Arith.subi b (pick i32s a) (pick i32s c))
      | 3 ->
        let cmp = Arith.cmpi b Arith.Slt (pick i32s a) (pick i32s c) in
        emit cmp;
        let one = Arith.const_i32 b 1 in
        let tv = Arith.addi b (pick i32s a) (Op.result1 one) in
        emit_val
          (Scf.if_ b ~cond:(Op.result1 cmp) ~result_tys:[ Types.I32 ]
             ~then_ops:[ one; tv; Scf.yield ~operands:[ Op.result1 tv ] () ]
             ~else_ops:[ Scf.yield ~operands:[ pick i32s c ] () ]
             ())
      | 4 ->
        let lb = index 0 and ub = index ((a mod 6) + 1) in
        let st = index ((c mod 2) + 1) in
        emit_val
          (Scf.for_ b ~lb ~ub ~step:st ~iter_args:[ pick i32s a ]
             (fun iv args ->
               let ivc = Arith.index_cast b iv Types.I32 in
               let s = Arith.addi b (List.hd args) (Op.result1 ivc) in
               [ ivc; s; Scf.yield ~operands:[ Op.result1 s ] () ]))
      | 5 ->
        let cmp = Arith.cmpi b Arith.Sgt (pick i32s a) (pick i32s c) in
        emit cmp;
        emit_val (Arith.select b (Op.result1 cmp) (pick i32s a) (pick i32s c))
      | 6 -> emit_val (Arith.const_float b (float_of a) (fty c))
      | 7 ->
        let pool = fpool c in
        let x = pick pool a and y = pick pool (a + c) in
        emit_val
          (match a mod 6 with
          | 0 -> Arith.addf b x y
          | 1 -> Arith.subf b x y
          | 2 -> Arith.mulf b x y
          | 3 -> Arith.divf b x y
          | 4 -> Arith.maxf b x y
          | _ -> Arith.negf b x)
      | 8 -> emit_val (Arith.sitofp b (pick i32s a) (fty c))
      | 9 -> emit_val (Arith.fptosi b (pick (fpool c) a) Types.I32)
      | 10 -> (
        match c mod 3 with
        | 0 -> emit_val (Arith.extf b (pick f32s a) Types.F64)
        | 1 -> emit_val (Arith.truncf b (pick f64s a) Types.F32)
        | _ -> emit_val (Arith.truncf b (pick (fpool c) a) Types.F16))
      | 11 ->
        if c mod 2 = 0 then
          emit_val (Arith.index_cast b (pick i32s a) Types.Index)
        else emit_val (Arith.index_cast b (pick idxs a) Types.I32)
      | 12 ->
        if c mod 2 = 0 then
          let pred =
            [| Arith.Eq; Arith.Ne; Arith.Slt; Arith.Sle; Arith.Sgt; Arith.Sge |]
          in
          emit_val (Arith.cmpi b pred.(a mod 6) (pick i32s a) (pick i32s c))
        else
          let pred =
            [| Arith.Oeq; Arith.One; Arith.Une; Arith.Olt; Arith.Ole; Arith.Ogt;
               Arith.Oge |]
          in
          let pool = fpool (c / 2) in
          emit_val (Arith.cmpf b pred.(a mod 7) (pick pool a) (pick pool c))
      | 13 ->
        let x = pick i1s a and y = pick i1s c in
        emit_val
          (match a mod 8 with
          | 0 -> Arith.andi b x y
          | 1 -> Arith.ori b x y
          | 2 -> Arith.xori b x y
          | 3 -> Arith.addi b x y
          | 4 -> Arith.subi b x y
          | 5 -> Arith.muli b x y
          | 6 -> Arith.maxsi b x y
          | _ -> Arith.minsi b x y)
      | 14 ->
        let pool =
          match c mod 4 with 0 -> i32s | 1 -> f32s | 2 -> f64s | _ -> i1s
        in
        emit_val (Arith.select b (pick i1s a) (pick pool a) (pick pool c))
      | 15 ->
        (* index, i32, two f32 and i1 iter args; the yield swaps the f32
           pair, so the copy back must read before it writes *)
        let lb = index 0 and ub = index ((a mod 5) + 1) and st = index 1 in
        let bound = pick i32s c in
        emit_val
          (Scf.for_ b ~lb ~ub ~step:st
             ~iter_args:
               [ pick idxs a; pick i32s c; pick f32s a; pick f32s c;
                 pick i1s a ]
             (fun iv args ->
               match args with
               | [ x; i; fa; fb; bo ] ->
                 let x' = Arith.addi b x iv in
                 let ic = Arith.index_cast b iv Types.I32 in
                 let i' = Arith.addi b i (Op.result1 ic) in
                 let ff = Arith.sitofp b (Op.result1 ic) Types.F32 in
                 let fa' = Arith.addf b fa (Op.result1 ff) in
                 let lt = Arith.cmpi b Arith.Slt (Op.result1 i') bound in
                 let bo' = Arith.xori b bo (Op.result1 lt) in
                 [ x'; ic; i'; ff; fa'; lt; bo';
                   Scf.yield
                     ~operands:
                       [ Op.result1 x'; Op.result1 i'; fb; Op.result1 fa';
                         Op.result1 bo' ]
                     () ]
               | _ -> assert false))
      | 16 ->
        let x = pick f32s a and y = pick f32s c in
        let bo = pick i1s c in
        let s = Arith.addf b x y in
        let nb = Arith.xori b bo bo in
        emit_val
          (Scf.if_ b ~cond:(pick i1s a) ~result_tys:[ Types.F32; Types.I1 ]
             ~then_ops:
               [ s; Scf.yield ~operands:[ Op.result1 s; bo ] () ]
             ~else_ops:
               [ nb; Scf.yield ~operands:[ y; Op.result1 nb ] () ]
             ())
      | 17 ->
        (* rank 0, 1 or 2 of f32, i32 or i1: an in-range store, then an
           in-range load that may or may not read the stored element *)
        let dims = match a mod 3 with 0 -> [] | 1 -> [ 3 ] | _ -> [ 2; 3 ] in
        let elt = [| Types.F32; Types.I32; Types.I1 |].(c mod 3) in
        let buf = tmp (Memref_d.alloca b (Types.memref_static dims elt)) in
        let at k = List.map (fun d -> index (k mod d)) dims in
        emit (Memref_d.store (pick (pool_of elt) a) buf (at a));
        emit_val (Memref_d.load b buf (at (a + (c mod 2))))
      | 18 ->
        (* an i32 counter carried from [a mod 4] up to 4, with pure ops in
           both regions, so the before-region's trailing scf.condition
           shares its segment with them *)
        let init = tmp (Arith.const_i32 b (a mod 4)) in
        let other = pick i32s c in
        emit_val
          (Scf.while_ b ~inits:[ init ]
             ~make_before:(fun args ->
               let x = List.hd args in
               let lim = Arith.const_i32 b 4 in
               let lt = Arith.cmpi b Arith.Slt x (Op.result1 lim) in
               let s = Arith.addi b x other in
               [ lim; lt; s;
                 Scf.condition ~cond:(Op.result1 lt) ~operands:[ x ] ])
             ~make_after:(fun args ->
               let x = List.hd args in
               let one = Arith.const_i32 b 1 in
               let x' = Arith.addi b x (Op.result1 one) in
               let m = Arith.muli b (Op.result1 x') other in
               [ one; x'; m; Scf.yield ~operands:[ Op.result1 x' ] () ]))
      | _ ->
        emit_val
          (Func_d.call b ~callee:"helper"
             ~operands:[ pick i32s a; pick f32s c; pick i1s a; pick idxs c ]
             ~result_tys:[ Types.F32; Types.I1; Types.I32 ]))
    choices;
  let results = [ i32s; idxs; f32s; f64s; f16s; i1s ] in
  Op.module_op
    [
      helper;
      Func_d.func ~sym_name:"f" ~args:[]
        ~result_tys:(List.map (fun p -> Value.ty (List.hd !p)) results)
        (List.rev
           (Func_d.return ~operands:(List.map (fun p -> List.hd !p) results) ()
           :: !ops));
    ]

let interp_program_gen =
  let open QCheck.Gen in
  let* choices =
    list_size (int_range 4 24)
      (pair (int_range 0 19) (pair (int_range 0 40) (int_range 0 40)))
  in
  return (interp_program choices)

(* Results with every float replaced by its bit pattern, so -0.0 and
   NaN payloads count. *)
let rtval_bits =
  List.map (function
    | Ftn_interp.Rtval.Float x -> `Bits (Int64.bits_of_float x)
    | v -> `Val v)

(* Each program also runs under a step limit: [k] picks it from 1 to the
   program's full step count. *)
let engines_differential =
  QCheck.Test.make ~count:60
    ~name:"tree and compiled engines agree on results and steps"
    (QCheck.make
       QCheck.Gen.(pair interp_program_gen (int_bound 1_000_000))
       ~print:(fun (m, k) -> Fmt.str "%s\nk = %d" (Printer.to_string m) k))
    (fun (m, k) ->
      Verifier.verify_exn m;
      let run ?max_steps engine =
        let state = Ftn_interp.Interp.make ?max_steps ~engine [ m ] in
        let r =
          match Ftn_interp.Interp.run state ~entry:"f" ~args:[] with
          | r -> Ok (rtval_bits r)
          | exception Ftn_interp.Interp.Interp_error msg -> Error msg
        in
        (r, state.Ftn_interp.Interp.steps)
      in
      let full = run `Tree in
      let max_steps = 1 + (k mod snd full) in
      full = run `Compiled
      && run ~max_steps `Tree = run ~max_steps `Compiled)


(* --- cross-backend differential property --- *)

(* Random arith/scf programs: an offloaded loop whose body is a random
   expression over x(i), y(i), a scalar coefficient and the index,
   conditionally guarded so scf.if paths are exercised too. Both
   backends interpret the same device IR, so results AND interpreter
   step counts must match exactly; only the priced simulated time is
   allowed to differ. *)
let backend_program_gen =
  let open QCheck.Gen in
  let* n = int_range 2 48 in
  let* coeff = float_bound_inclusive 4.0 in
  let* shape = int_range 0 3 in
  let* simdlen = oneofl [ 1; 4; 8 ] in
  return (n, coeff, shape, simdlen)

let backend_program_src (n, coeff, shape, simdlen) =
  let body =
    match shape with
    | 0 -> "y(i) = y(i) + a * x(i)"
    | 1 -> "y(i) = a * x(i) - y(i) * 0.5"
    | 2 -> "if (x(i) > 2.0) then\ny(i) = y(i) + a\nelse\ny(i) = y(i) - x(i)\nend if"
    | _ -> "y(i) = x(i) * x(i) + a * real(i)"
  in
  let pragma =
    if simdlen > 1 then
      Printf.sprintf "!$omp target parallel do simd simdlen(%d) map(to:x) map(tofrom:y)" simdlen
    else "!$omp target parallel do map(to:x) map(tofrom:y)"
  in
  let close =
    if simdlen > 1 then "!$omp end target parallel do simd"
    else "!$omp end target parallel do"
  in
  Printf.sprintf
    "program p\nreal :: x(%d), y(%d)\nreal :: a\ninteger :: i\na = %f\ndo i = 1, %d\nx(i) = real(i) * 0.5\ny(i) = real(%d - i) * 0.25\nend do\n%s\ndo i = 1, %d\n%s\nend do\n%s\nprint *, y(1), y(%d)\nend program"
    n n coeff n n pragma n body close n

let backends_differential =
  QCheck.Test.make ~count:15
    ~name:"vitis and rv backends agree on results and step counts"
    (QCheck.make backend_program_gen ~print:(fun g -> backend_program_src g))
    (fun g ->
      let src = backend_program_src g in
      let run_backend name =
        let backend = Option.get (Ftn_backend.Backend_registry.find name) in
        let options =
          {
            Core.Options.default with
            Core.Options.backend;
            xclbin_name = Ftn_backend.Backend.default_binary backend;
          }
        in
        let before = Ftn_obs.Metrics.counter_value "interp.steps" in
        let art = Core.Compiler.compile ~options src in
        let bs = Core.Compiler.synthesise ~options art in
        let r =
          Ftn_runtime.Executor.run ~host:art.Core.Compiler.host ~bitstream:bs ()
        in
        let steps = Ftn_obs.Metrics.counter_value "interp.steps" - before in
        ( r.Ftn_runtime.Executor.output,
          r.Ftn_runtime.Executor.kernel_launches,
          r.Ftn_runtime.Executor.bytes_transferred,
          steps )
      in
      run_backend "vitis" = run_backend "rv")

(* --- fault-injection differential properties --- *)

module Fault = Ftn_fault.Fault
module Executor = Ftn_runtime.Executor

(* One compiled SAXPY shared by every fault property (compilation
   dominates the cost; the executor runs are cheap). *)
let fault_saxpy =
  lazy
    (let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:24) in
     let bs = Core.Compiler.synthesise art in
     (art.Core.Compiler.host, bs))

let fault_exec ?faults () =
  let host, bitstream = Lazy.force fault_saxpy in
  Executor.run ?faults
    ~diag:(Ftn_diag.Diag_engine.create ())
    ~host ~bitstream ()

let transient_plan_gen =
  let open QCheck.Gen in
  let rule_gen =
    let* kind =
      oneofl
        [
          Fault.Alloc_failure; Fault.Transfer_error; Fault.Kernel_timeout;
          Fault.Launch_failure;
        ]
    in
    let* trigger =
      oneof
        [
          map (fun n -> Fault.Nth n) (int_range 1 4);
          map (fun p -> Fault.Probability (p *. 0.5)) (float_bound_inclusive 1.0);
        ]
    in
    return (Fault.rule kind trigger)
  in
  let* rules = list_size (int_range 1 3) rule_gen in
  let* seed = int_range 0 10_000 in
  return (Fault.plan ~seed rules)

(* The central robustness guarantee: a plan of only transient faults
   changes timing but never semantics. Output and the full device data
   environment are byte-identical to the fault-free run, and the run is
   never degraded; simulated time strictly grows iff something fired. *)
let transient_faults_transparent =
  QCheck.Test.make ~count:40
    ~name:"transient fault plans are semantically transparent"
    (QCheck.make transient_plan_gen ~print:Fault.plan_to_string)
    (fun plan ->
      let clean = fault_exec () in
      let faulted = fault_exec ~faults:plan () in
      String.equal clean.Executor.output faulted.Executor.output
      && String.equal
           (Ftn_runtime.Data_env.snapshot clean.Executor.data)
           (Ftn_runtime.Data_env.snapshot faulted.Executor.data)
      && (not faulted.Executor.degraded)
      && faulted.Executor.cpu_fallbacks = 0
      &&
      if faulted.Executor.faults_injected > 0 then
        faulted.Executor.device_time_s > clean.Executor.device_time_s
      else
        Float.equal faulted.Executor.device_time_s clean.Executor.device_time_s)

(* Persistent kernel-site faults must complete through the host-CPU
   fallback: flagged degraded, yet numerically indistinguishable. *)
let persistent_kernel_degrades =
  QCheck.Test.make ~count:20
    ~name:"persistent kernel faults degrade to a correct CPU fallback"
    (QCheck.make
       (QCheck.Gen.oneofl [ Fault.Launch_failure; Fault.Kernel_timeout ])
       ~print:Fault.kind_code)
    (fun kind ->
      let plan =
        Fault.plan [ Fault.rule ~persistence:Fault.Persistent kind (Fault.Nth 1) ]
      in
      let clean = fault_exec () in
      let faulted = fault_exec ~faults:plan () in
      String.equal clean.Executor.output faulted.Executor.output
      && String.equal
           (Ftn_runtime.Data_env.snapshot clean.Executor.data)
           (Ftn_runtime.Data_env.snapshot faulted.Executor.data)
      && faulted.Executor.degraded
      && faulted.Executor.cpu_fallbacks >= 1
      && faulted.Executor.fallback_time_s > 0.0)

(* The IR parser is total: on arbitrarily mutated input it either parses
   or raises Parse_error — never any other exception. *)
let parser_totality =
  let gen =
    let open QCheck.Gen in
    let* seed_ops = int_range 1 6 in
    let* mutations = list_size (int_range 0 8) (pair (int_range 0 2000) (char_range ' ' '~')) in
    let* base = arith_module_gen in
    ignore seed_ops;
    return (base, mutations)
  in
  QCheck.Test.make ~count:200 ~name:"parser never raises anything but Parse_error"
    (QCheck.make gen ~print:(fun (m, _) -> Printer.to_string m))
    (fun (m, mutations) ->
      let text = Bytes.of_string (Printer.to_string m) in
      List.iter
        (fun (pos, c) ->
          if Bytes.length text > 0 then
            Bytes.set text (pos mod Bytes.length text) c)
        mutations;
      match Ir_parser.parse_module (Bytes.to_string text) with
      | _ -> true
      | exception Ir_parser.Parse_error _ -> true
      | exception _ -> false)

let () =
  Registry.register_all ();
  Alcotest.run "properties"
    [
      ( "qcheck",
        List.map to_alcotest
          [
            type_roundtrip;
            attr_roundtrip;
            module_roundtrip;
            fold_preserves_semantics;
            frontend_loops_verify;
            refcount_invariant;
            buffer_roundtrip;
            unroll_monotonicity;
            saxpy_random_agreement;
            measure_props;
            clone_preserves_structure;
            acc_omp_equivalence;
            parser_totality;
            rewrite_fixpoint;
            cycle_detection;
            fold_matches_interp;
            nonconvergence_reported;
            over_release_reported;
            engines_differential;
            backends_differential;
            transient_faults_transparent;
            persistent_kernel_degrades;
          ] );
    ]
