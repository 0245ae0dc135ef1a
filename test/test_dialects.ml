(* Tests for the dialect definitions: builders produce well-formed ops,
   matchers decompose them, and registered verifiers reject malformed IR. *)

open Ftn_ir
open Ftn_dialects

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let verify_ok op =
  match Dialect.lookup (Op.name op) with
  | Some info -> (
    match info.Dialect.verify op with
    | Ok () -> ()
    | Error msg -> Alcotest.fail (Op.name op ^ ": " ^ msg))
  | None -> Alcotest.fail ("unregistered op " ^ Op.name op)

let verify_err op =
  match Dialect.lookup (Op.name op) with
  | Some info -> (
    match info.Dialect.verify op with
    | Ok () -> Alcotest.fail (Op.name op ^ ": expected verifier error")
    | Error _ -> ())
  | None -> Alcotest.fail ("unregistered op " ^ Op.name op)

(* --- arith --- *)

let arith_tests =
  [
    tc "constants carry typed values" (fun () ->
        let b = Builder.create () in
        let c = Arith.const_i32 b 5 in
        check (Alcotest.option Alcotest.int) "int" (Some 5) (Arith.constant_int c);
        let f = Arith.const_f64 b 1.25 in
        check Alcotest.bool "float" true
          (Arith.constant_value f = Some (Attr.Float (1.25, Types.F64)));
        verify_ok c;
        verify_ok f);
    tc "binops keep the operand type" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.F32 in
        let y = Builder.fresh b Types.F32 in
        let add = Arith.addf b x y in
        check Alcotest.bool "f32 result" true
          (Types.equal Types.F32 (Value.ty (Op.result1 add)));
        verify_ok add);
    tc "fastmath flag" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.F32 in
        let m = Arith.mulf b ~fastmath:true x x in
        check (Alcotest.option Alcotest.string) "flag" (Some "contract")
          (Op.string_attr m "fastmath");
        let m2 = Arith.mulf b x x in
        check Alcotest.bool "absent" false (Op.has_attr m2 "fastmath"));
    tc "comparisons produce i1" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.Index in
        let c = Arith.cmpi b Arith.Slt x x in
        check Alcotest.bool "i1" true (Types.equal Types.I1 (Value.ty (Op.result1 c)));
        check (Alcotest.option Alcotest.string) "pred" (Some "slt")
          (Op.string_attr c "predicate");
        verify_ok c);
    tc "predicate string round trips" (fun () ->
        List.iter
          (fun p ->
            check Alcotest.bool "roundtrip" true
              (Arith.int_pred_of_string (Arith.string_of_int_pred p) = Some p))
          [ Arith.Eq; Arith.Ne; Arith.Slt; Arith.Sle; Arith.Sgt; Arith.Sge ];
        List.iter
          (fun p ->
            check Alcotest.bool "roundtrip" true
              (Arith.float_pred_of_string (Arith.string_of_float_pred p) = Some p))
          [ Arith.Oeq; Arith.One; Arith.Une; Arith.Olt; Arith.Ole; Arith.Ogt;
            Arith.Oge ]);
    tc "fold tables" (fun () ->
        check (Alcotest.option Alcotest.int) "addi" (Some 7)
          (Arith.eval_int_binop Arith.Addi Types.I32 3 4);
        check (Alcotest.option Alcotest.int) "div0" None
          (Arith.eval_int_binop Arith.Divsi Types.I32 3 0);
        check (Alcotest.float 1e-9) "mulf" 1.5
          (Arith.eval_float_binop Arith.Mulf Types.F64 0.5 3.0);
        check Alcotest.bool "pred eval" true (Arith.eval_int_pred Arith.Slt 1 2);
        (* ordered predicates are false on a NaN operand, une is true *)
        List.iter
          (fun (what, p, x, y, expect) ->
            check Alcotest.bool what expect (Arith.eval_float_pred p x y))
          [
            ("one on NaN", Arith.One, Float.nan, 1.0, false);
            ("une on NaN", Arith.Une, Float.nan, 1.0, true);
            ("oeq on NaN", Arith.Oeq, Float.nan, Float.nan, false);
            ("one", Arith.One, 1.0, 2.0, true);
            ("une", Arith.Une, 1.0, 2.0, true);
            ("one on equals", Arith.One, 2.0, 2.0, false);
            ("une on equals", Arith.Une, 2.0, 2.0, false);
          ]);
    tc "verifier rejects operand mismatch" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        verify_err (Op.make "arith.addi" ~operands:[ x ]
                      ~results:[ Builder.fresh b Types.I32 ]);
        let y = Builder.fresh b Types.F32 in
        verify_err
          (Op.make "arith.addi" ~operands:[ x; y ]
             ~results:[ Builder.fresh b Types.I32 ]));
    tc "select verifier wants i1 condition" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        verify_err
          (Op.make "arith.select" ~operands:[ x; x; x ]
             ~results:[ Builder.fresh b Types.I32 ]));
  ]

(* --- scf --- *)

let scf_tests =
  [
    tc "for loop structure" (fun () ->
        let b = Builder.create () in
        let z = Arith.const_index b 0 in
        let n = Arith.const_index b 8 in
        let one = Arith.const_index b 1 in
        let loop =
          Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 n)
            ~step:(Op.result1 one) (fun _iv _ -> [ Scf.yield () ])
        in
        verify_ok loop;
        match Scf.for_parts loop with
        | Some parts ->
          check Alcotest.bool "iv is index" true
            (Types.equal Types.Index (Value.ty parts.Scf.induction));
          check Alcotest.int "no iter args" 0 (List.length parts.Scf.iter_args)
        | None -> Alcotest.fail "for_parts failed");
    tc "for loop with iter args" (fun () ->
        let b = Builder.create () in
        let z = Arith.const_index b 0 in
        let acc0 = Arith.const_f32 b 0.0 in
        let loop =
          Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 z)
            ~step:(Op.result1 z)
            ~iter_args:[ Op.result1 acc0 ]
            (fun _iv args -> [ Scf.yield ~operands:args () ])
        in
        check Alcotest.int "one result" 1 (List.length (Op.results loop));
        check Alcotest.bool "result is f32" true
          (Types.equal Types.F32 (Value.ty (Op.result1 loop)));
        verify_ok loop);
    tc "if with results uses two regions" (fun () ->
        let b = Builder.create () in
        let c = Arith.const_bool b true in
        let t = Arith.const_i32 b 1 in
        let f = Arith.const_i32 b 2 in
        let if_op =
          Scf.if_ b ~cond:(Op.result1 c) ~result_tys:[ Types.I32 ]
            ~then_ops:[ t; Scf.yield ~operands:[ Op.result1 t ] () ]
            ~else_ops:[ f; Scf.yield ~operands:[ Op.result1 f ] () ]
            ()
        in
        check Alcotest.int "regions" 2 (List.length (Op.regions if_op));
        verify_ok if_op);
    tc "if without else collapses to one region" (fun () ->
        let b = Builder.create () in
        let c = Arith.const_bool b false in
        let if_op =
          Scf.if_ b ~cond:(Op.result1 c) ~then_ops:[ Scf.yield () ] ()
        in
        check Alcotest.int "regions" 1 (List.length (Op.regions if_op)));
    tc "for verifier checks region args" (fun () ->
        let b = Builder.create () in
        let z = Builder.fresh b Types.Index in
        verify_err
          (Op.make "scf.for" ~operands:[ z; z; z ]
             ~regions:[ Op.region [ Scf.yield () ] ]));
  ]

(* --- memref --- *)

let memref_tests =
  [
    tc "alloc dynamic sizes must match" (fun () ->
        let b = Builder.create () in
        let alloc_static = Memref_d.alloc b (Types.memref_static [ 4 ] Types.F32) in
        verify_ok alloc_static;
        let alloc_bad =
          Op.make "memref.alloc"
            ~results:[ Builder.fresh b (Types.memref_dynamic 1 Types.F32) ]
        in
        verify_err alloc_bad);
    tc "load/store index counts" (fun () ->
        let b = Builder.create () in
        let mr = Builder.fresh b (Types.memref_static [ 4; 4 ] Types.F32) in
        let i = Builder.fresh b Types.Index in
        let good = Memref_d.load b mr [ i; i ] in
        verify_ok good;
        verify_err
          (Op.make "memref.load" ~operands:[ mr; i ]
             ~results:[ Builder.fresh b Types.F32 ]);
        let v = Builder.fresh b Types.F32 in
        verify_ok (Memref_d.store v mr [ i; i ]);
        verify_err (Op.make "memref.store" ~operands:[ v; mr; i ]));
    tc "load result has element type" (fun () ->
        let b = Builder.create () in
        let mr = Builder.fresh b (Types.memref_static [ 4 ] Types.F64) in
        let i = Builder.fresh b Types.Index in
        check Alcotest.bool "f64" true
          (Types.equal Types.F64 (Value.ty (Op.result1 (Memref_d.load b mr [ i ])))));
    tc "store/load parts" (fun () ->
        let b = Builder.create () in
        let mr = Builder.fresh b (Types.memref_static [ 4 ] Types.F32) in
        let i = Builder.fresh b Types.Index in
        let v = Builder.fresh b Types.F32 in
        (match Memref_d.store_parts (Memref_d.store v mr [ i ]) with
        | Some (v', mr', [ i' ]) ->
          check Alcotest.bool "v" true (Value.equal v v');
          check Alcotest.bool "mr" true (Value.equal mr mr');
          check Alcotest.bool "i" true (Value.equal i i')
        | _ -> Alcotest.fail "store_parts");
        match Memref_d.load_parts (Memref_d.load b mr [ i ]) with
        | Some (mr', [ _ ]) -> check Alcotest.bool "mr" true (Value.equal mr mr')
        | _ -> Alcotest.fail "load_parts");
    tc "dma ops carry tags" (fun () ->
        let b = Builder.create () in
        let src = Builder.fresh b (Types.memref_static [ 4 ] Types.F32) in
        let dst =
          Builder.fresh b (Types.memref_static ~memory_space:1 [ 4 ] Types.F32)
        in
        let dma = Memref_d.dma_start ~tag:3 ~src ~dst () in
        check (Alcotest.option Alcotest.int) "tag" (Some 3) (Op.int_attr dma "tag");
        verify_ok dma;
        verify_ok (Memref_d.dma_wait ~tag:3 ()));
  ]

(* --- func --- *)

let func_tests =
  [
    tc "function type matches args" (fun () ->
        let b = Builder.create () in
        let arg = Builder.fresh b Types.F32 in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[ arg ] ~result_tys:[ Types.F32 ]
            [ Func_d.return ~operands:[ arg ] () ]
        in
        verify_ok fn;
        check (Alcotest.option Alcotest.string) "name" (Some "f")
          (Func_d.func_name fn);
        match Func_d.func_type fn with
        | Some ([ t ], [ r ]) ->
          check Alcotest.bool "arg" true (Types.equal Types.F32 t);
          check Alcotest.bool "res" true (Types.equal Types.F32 r)
        | _ -> Alcotest.fail "func_type");
    tc "declaration has no body" (fun () ->
        let decl =
          Func_d.func_decl ~sym_name:"ext" ~arg_tys:[ Types.I32 ]
            ~result_tys:[] ()
        in
        check Alcotest.bool "no body" false (Func_d.has_body decl);
        verify_ok decl);
    tc "mismatched entry block is rejected" (fun () ->
        let b = Builder.create () in
        let arg = Builder.fresh b Types.F32 in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[ arg ] ~result_tys:[]
            [ Func_d.return () ]
        in
        let bad =
          Op.set_attr fn "function_type" (Attr.Type (Types.Func ([], [])))
        in
        verify_err bad);
    tc "call builder" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let call = Func_d.call b ~callee:"g" ~operands:[ x ] ~result_tys:[ Types.I32 ] in
        check (Alcotest.option Alcotest.string) "callee" (Some "g")
          (Func_d.callee call);
        verify_ok call);
  ]

(* --- omp --- *)

let omp_tests =
  [
    tc "map_info parts round trip" (fun () ->
        let b = Builder.create () in
        let var = Builder.fresh b (Types.memref_static [ 10 ] Types.F32) in
        let mi =
          Omp.map_info b ~var ~var_name:"a" ~map_type:Omp.From ~implicit:true ()
        in
        verify_ok mi;
        match Omp.map_parts mi with
        | Some parts ->
          check Alcotest.string "name" "a" parts.Omp.var_name;
          check Alcotest.bool "kind" true (parts.Omp.map_type = Omp.From);
          check Alcotest.bool "implicit" true parts.Omp.implicit;
          check Alcotest.bool "var" true (Value.equal var parts.Omp.var)
        | None -> Alcotest.fail "map_parts");
    tc "map types round trip" (fun () ->
        List.iter
          (fun k ->
            check Alcotest.bool "roundtrip" true
              (Omp.map_type_of_string (Omp.string_of_map_type k) = Some k))
          [ Omp.To; Omp.From; Omp.Tofrom; Omp.Alloc; Omp.Release; Omp.Delete ]);
    tc "target block args mirror operands" (fun () ->
        let b = Builder.create () in
        let var = Builder.fresh b (Types.memref_static [ 10 ] Types.F32) in
        let mi = Omp.map_info b ~var ~var_name:"a" ~map_type:Omp.Tofrom () in
        let t =
          Omp.target b ~map_operands:[ Op.result1 mi ] (fun args ->
              check Alcotest.int "one arg" 1 (List.length args);
              [ Omp.terminator () ])
        in
        verify_ok t);
    tc "parallel_do loop parts" (fun () ->
        let b = Builder.create () in
        let z = Builder.fresh b Types.Index in
        let pd =
          Omp.parallel_do b ~lbs:[ z ] ~ubs:[ z ] ~steps:[ z ] ~simd:true
            ~simdlen:10 (fun ivs ->
              check Alcotest.int "one iv" 1 (List.length ivs);
              [ Omp.yield () ])
        in
        verify_ok pd;
        match Omp.loop_parts pd with
        | Some parts ->
          check Alcotest.bool "simd" true parts.Omp.simd;
          check (Alcotest.option Alcotest.int) "simdlen" (Some 10) parts.Omp.simdlen;
          check Alcotest.int "rank" 1 (List.length parts.Omp.lbs)
        | None -> Alcotest.fail "loop_parts");
    tc "parallel_do with reduction" (fun () ->
        let b = Builder.create () in
        let z = Builder.fresh b Types.Index in
        let acc = Builder.fresh b (Types.memref [] Types.F32) in
        let pd =
          Omp.parallel_do b ~lbs:[ z ] ~ubs:[ z ] ~steps:[ z ]
            ~reductions:[ (Omp.Red_add, acc) ]
            (fun _ -> [ Omp.yield () ])
        in
        verify_ok pd;
        match Omp.loop_parts pd with
        | Some parts -> (
          match parts.Omp.reduction_accs with
          | [ (Omp.Red_add, v) ] ->
            check Alcotest.bool "acc" true (Value.equal acc v)
          | _ -> Alcotest.fail "reduction_accs")
        | None -> Alcotest.fail "loop_parts");
    tc "collapse-2 bounds split" (fun () ->
        let b = Builder.create () in
        let z = Builder.fresh b Types.Index in
        let pd =
          Omp.parallel_do b ~lbs:[ z; z ] ~ubs:[ z; z ] ~steps:[ z; z ]
            (fun ivs ->
              check Alcotest.int "two ivs" 2 (List.length ivs);
              [ Omp.yield () ])
        in
        match Omp.loop_parts pd with
        | Some parts -> check Alcotest.int "two" 2 (List.length parts.Omp.ubs)
        | None -> Alcotest.fail "loop_parts");
    tc "rank mismatch raises" (fun () ->
        let b = Builder.create () in
        let z = Builder.fresh b Types.Index in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Omp.parallel_do: bounds rank mismatch") (fun () ->
            ignore
              (Omp.parallel_do b ~lbs:[ z; z ] ~ubs:[ z ] ~steps:[ z ]
                 (fun _ -> []))));
  ]

(* --- device --- *)

let device_tests =
  [
    tc "alloc forces memory space onto result type" (fun () ->
        let b = Builder.create () in
        let alloc =
          Device.alloc b ~name:"a" ~memory_space:1
            (Types.memref_static [ 100 ] Types.F64)
        in
        verify_ok alloc;
        (match Value.ty (Op.result1 alloc) with
        | Types.Memref mi -> check Alcotest.int "space" 1 mi.Types.memory_space
        | _ -> Alcotest.fail "not a memref");
        check (Alcotest.option Alcotest.string) "name" (Some "a")
          (Device.op_name_attr alloc);
        check Alcotest.int "space attr" 1 (Device.op_memory_space alloc));
    tc "data ops verify name attributes" (fun () ->
        verify_ok (Device.data_acquire ~name:"x" ~memory_space:1);
        verify_ok (Device.data_release ~name:"x" ~memory_space:1);
        verify_err (Op.make "device.data_acquire"));
    tc "kernel_create returns a handle" (fun () ->
        let b = Builder.create () in
        let arg = Builder.fresh b (Types.memref_static ~memory_space:1 [ 4 ] Types.F32) in
        let kc = Device.kernel_create b ~args:[ arg ] ~device_function:"k" () in
        verify_ok kc;
        check Alcotest.bool "handle type" true
          (Types.equal Types.Kernel_handle (Value.ty (Op.result1 kc)));
        check (Alcotest.option Alcotest.string) "fn" (Some "k")
          (Device.kernel_function kc);
        verify_ok (Device.kernel_launch (Op.result1 kc));
        verify_ok (Device.kernel_wait (Op.result1 kc)));
    tc "launch rejects non-handle operands" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        verify_err (Op.make "device.kernel_launch" ~operands:[ x ]));
  ]

(* --- hls --- *)

let hls_tests =
  [
    tc "interface checks protocol operand" (fun () ->
        let b = Builder.create () in
        let arg = Builder.fresh b (Types.memref_static [ 4 ] Types.F32) in
        let kind = Arith.const_i32 b (Hls.int_of_protocol Hls.M_axi) in
        let proto = Hls.axi_protocol b (Op.result1 kind) in
        let iface =
          Hls.interface ~arg ~protocol:(Op.result1 proto) ~bundle:"gmem0"
        in
        verify_ok iface;
        check (Alcotest.option Alcotest.string) "bundle" (Some "gmem0")
          (Hls.interface_bundle iface);
        let not_proto = Builder.fresh b Types.I32 in
        verify_err
          (Op.make "hls.interface" ~operands:[ arg; not_proto ]
             ~attrs:[ ("bundle", Attr.String "gmem0") ]));
    tc "protocol kinds round trip" (fun () ->
        List.iter
          (fun k ->
            check Alcotest.bool "roundtrip" true
              (Hls.protocol_of_int (Hls.int_of_protocol k) = Some k))
          [ Hls.M_axi; Hls.S_axilite; Hls.Ap_none ]);
    tc "pipeline and unroll take one operand" (fun () ->
        let b = Builder.create () in
        let ii = Arith.const_i32 b 1 in
        verify_ok (Hls.pipeline (Op.result1 ii));
        verify_ok (Hls.unroll (Op.result1 ii));
        verify_err (Op.make "hls.pipeline"));
    tc "array partition" (fun () ->
        let b = Builder.create () in
        let arr = Builder.fresh b (Types.memref_static [ 8 ] Types.F32) in
        let ap = Hls.array_partition ~array:arr ~kind:"complete" ~factor:8 in
        verify_ok ap;
        check (Alcotest.option Alcotest.string) "kind" (Some "complete")
          (Op.string_attr ap "kind"));
    tc "stream read yields element type" (fun () ->
        let b = Builder.create () in
        let s = Builder.fresh b (Types.Stream Types.F32) in
        let r = Hls.stream_read b s in
        check Alcotest.bool "f32" true
          (Types.equal Types.F32 (Value.ty (Op.result1 r)));
        verify_ok r;
        let v = Builder.fresh b Types.F32 in
        verify_ok (Hls.stream_write ~stream:s ~value:v));
  ]

(* --- fir and llvm --- *)

let fir_llvm_tests =
  [
    tc "fir builders" (fun () ->
        let b = Builder.create () in
        let st = Fir.alloca b ~bindc_name:"x" (Types.memref [] Types.F32) in
        verify_ok st;
        let d = Fir.declare b ~uniq_name:"x" (Op.result1 st) in
        verify_ok d;
        let v = Fir.load b (Op.result1 st) [] in
        verify_ok v;
        verify_ok (Fir.store ~value:(Op.result1 v) ~ref_:(Op.result1 st) []));
    tc "fir do_loop" (fun () ->
        let b = Builder.create () in
        let z = Builder.fresh b Types.Index in
        let loop = Fir.do_loop b ~lb:z ~ub:z ~step:z (fun _ -> [ Fir.result () ]) in
        verify_ok loop);
    tc "llvm cond_br operand split" (fun () ->
        let b = Builder.create () in
        let c = Builder.fresh b Types.I1 in
        let x = Builder.fresh b Types.I64 in
        let y = Builder.fresh b Types.I64 in
        let br =
          Llvm_d.cond_br ~cond:c ~true_dest:"t" ~true_operands:[ x ]
            ~false_dest:"f" ~false_operands:[ y ] ()
        in
        match Llvm_d.cond_br_parts br with
        | Some (c', "t", [ x' ], "f", [ y' ]) ->
          check Alcotest.bool "c" true (Value.equal c c');
          check Alcotest.bool "x" true (Value.equal x x');
          check Alcotest.bool "y" true (Value.equal y y')
        | _ -> Alcotest.fail "cond_br_parts");
    tc "llvm func decl" (fun () ->
        let decl =
          Llvm_d.func_decl ~sym_name:"sqrtf"
            ~fn_ty:(Types.Func ([ Types.F32 ], [ Types.F32 ]))
            ()
        in
        verify_ok decl;
        check (Alcotest.option Alcotest.string) "linkage" (Some "external")
          (Op.string_attr decl "linkage"));
    tc "llvm getelementptr keeps pointer type" (fun () ->
        let b = Builder.create () in
        let p = Builder.fresh b (Types.Ptr Types.F32) in
        let i = Builder.fresh b Types.I64 in
        let gep = Llvm_d.getelementptr b ~base:p ~indices:[ i ] ~elem_ty:Types.F32 in
        check Alcotest.bool "ptr" true
          (Types.equal (Types.Ptr Types.F32) (Value.ty (Op.result1 gep)));
        verify_ok gep);
  ]

let registry_tests =
  [
    tc "all expected dialects registered" (fun () ->
        let dialects = Dialect.registered_dialects () in
        List.iter
          (fun d ->
            Alcotest.check Alcotest.bool (d ^ " registered") true
              (List.mem d dialects))
          [ "arith"; "builtin"; "device"; "fir"; "func"; "hls"; "llvm";
            "math"; "memref"; "omp"; "scf" ]);
    tc "registration is idempotent" (fun () ->
        let before = List.length (Dialect.registered_ops ()) in
        Registry.register_all ();
        Registry.register_all ();
        check Alcotest.int "same count" before
          (List.length (Dialect.registered_ops ())));
  ]

let () =
  Registry.register_all ();
  Alcotest.run "dialects"
    [
      ("arith", arith_tests);
      ("scf", scf_tests);
      ("memref", memref_tests);
      ("func", func_tests);
      ("omp", omp_tests);
      ("device", device_tests);
      ("hls", hls_tests);
      ("fir-llvm", fir_llvm_tests);
      ("registry", registry_tests);
    ]
