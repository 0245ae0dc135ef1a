(* Tests for the IR interpreter: runtime values and buffers, scalar
   semantics, structured control flow, memory, calls, sequential OpenMP,
   and the loop statistics hook. Every suite that executes IR runs under
   both engines — the tree-walker and the closure compiler — and an
   "engines" suite checks the two agree on results and step counts. *)

open Ftn_ir
open Ftn_dialects
open Ftn_interp

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let engines = [ ("tree", `Tree); ("compiled", `Compiled) ]

(* Build a module with one function "f" and run it. *)
let run_fn ?engine ?handlers ~args ~arg_tys ~result_tys body_fn =
  let b = Builder.create () in
  let params = List.map (Builder.fresh b) arg_tys in
  let body = body_fn b params in
  let fn = Func_d.func ~sym_name:"f" ~args:params ~result_tys body in
  let m = Op.module_op [ fn ] in
  Verifier.verify_exn m;
  let state = Interp.make ?handlers ?engine [ m ] in
  Interp.run state ~entry:"f" ~args

let rtval = Alcotest.testable Rtval.pp (fun a b -> a = b)

(* --- rtval --- *)

let rtval_tests =
  [
    tc "buffer allocation and access" (fun () ->
        let buf = Rtval.alloc_buffer Types.F32 [ 2; 3 ] in
        check Alcotest.int "len" 6 (Rtval.buffer_len buf);
        Rtval.store buf [ 1; 2 ] (Rtval.Float 5.0);
        check rtval "load back" (Rtval.Float 5.0) (Rtval.load buf [ 1; 2 ]);
        check rtval "other slot zero" (Rtval.Float 0.0) (Rtval.load buf [ 0; 0 ]));
    tc "rank-0 buffers" (fun () ->
        let buf = Rtval.alloc_buffer Types.I32 [] in
        Rtval.store buf [] (Rtval.Int 7);
        check rtval "scalar" (Rtval.Int 7) (Rtval.load buf []));
    tc "bounds checking" (fun () ->
        let buf = Rtval.alloc_buffer Types.F32 [ 4 ] in
        Alcotest.check_raises "oob"
          (Invalid_argument "index 4 out of bounds for dimension of size 4")
          (fun () -> ignore (Rtval.load buf [ 4 ])));
    tc "f32 stores round to single precision" (fun () ->
        let buf = Rtval.alloc_buffer Types.F32 [ 1 ] in
        Rtval.store buf [ 0 ] (Rtval.Float 0.1);
        (match Rtval.load buf [ 0 ] with
        | Rtval.Float x ->
          check Alcotest.bool "rounded" true (x <> 0.1 && Float.abs (x -. 0.1) < 1e-7)
        | _ -> Alcotest.fail "not a float");
        let buf64 = Rtval.alloc_buffer Types.F64 [ 1 ] in
        Rtval.store buf64 [ 0 ] (Rtval.Float 0.1);
        check rtval "f64 exact" (Rtval.Float 0.1) (Rtval.load buf64 [ 0 ]));
    tc "i1 buffers store booleans" (fun () ->
        let buf = Rtval.alloc_buffer Types.I1 [ 1 ] in
        Rtval.store buf [ 0 ] (Rtval.Bool true);
        check rtval "bool" (Rtval.Bool true) (Rtval.load buf [ 0 ]));
    tc "copy_into converts representation" (fun () ->
        let src = Rtval.of_int_array Types.I32 [| 1; 2; 3 |] in
        let dst = Rtval.alloc_buffer Types.F32 [ 3 ] in
        Rtval.copy_into ~src ~dst;
        check rtval "converted" (Rtval.Float 2.0) (Rtval.load dst [ 1 ]));
    tc "byte size" (fun () ->
        check Alcotest.int "f64 x4" 32
          (Rtval.byte_size (Rtval.alloc_buffer Types.F64 [ 4 ]));
        check Alcotest.int "rank0 f32" 4
          (Rtval.byte_size (Rtval.alloc_buffer Types.F32 [])));
  ]

(* --- scalar ops --- *)

let scalar_tests engine =
  [
    tc "integer arithmetic" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Int 7; Rtval.Int 3 ]
            ~arg_tys:[ Types.I32; Types.I32 ] ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ x; y ] ->
                let s = Arith.subi b x y in
                let m = Arith.muli b (Op.result1 s) y in
                [ s; m; Func_d.return ~operands:[ Op.result1 m ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "result" [ Rtval.Int 12 ] r);
    tc "float arithmetic rounds f32" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Float 1.0 ] ~arg_tys:[ Types.F32 ]
            ~result_tys:[ Types.F32 ]
            (fun b params ->
              match params with
              | [ x ] ->
                let c = Arith.const_f32 b 0.1 in
                let s = Arith.addf b x (Op.result1 c) in
                [ c; s; Func_d.return ~operands:[ Op.result1 s ] () ]
              | _ -> assert false)
        in
        match r with
        | [ Rtval.Float x ] ->
          check Alcotest.bool "single precision" true
            (Float.abs (x -. 1.1) < 1e-6)
        | _ -> Alcotest.fail "bad result");
    tc "division by zero raises" (fun () ->
        try
          ignore
            (run_fn ~engine ~args:[ Rtval.Int 1; Rtval.Int 0 ]
               ~arg_tys:[ Types.I32; Types.I32 ] ~result_tys:[ Types.I32 ]
               (fun b params ->
                 match params with
                 | [ x; y ] ->
                   let d = Arith.divsi b x y in
                   [ d; Func_d.return ~operands:[ Op.result1 d ] () ]
                 | _ -> assert false));
          Alcotest.fail "expected error"
        with Interp.Interp_error _ -> ());
    tc "comparisons and select" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Int 5; Rtval.Int 9 ]
            ~arg_tys:[ Types.I32; Types.I32 ] ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ x; y ] ->
                let c = Arith.cmpi b Arith.Sgt x y in
                let s = Arith.select b (Op.result1 c) x y in
                [ c; s; Func_d.return ~operands:[ Op.result1 s ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "max" [ Rtval.Int 9 ] r);
    tc "math functions" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Float 4.0 ] ~arg_tys:[ Types.F64 ]
            ~result_tys:[ Types.F64 ]
            (fun b params ->
              match params with
              | [ x ] ->
                let s = Math_d.sqrt b x in
                [ s; Func_d.return ~operands:[ Op.result1 s ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "sqrt" [ Rtval.Float 2.0 ] r);
    tc "casts" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Float 3.7 ] ~arg_tys:[ Types.F64 ]
            ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ x ] ->
                let c = Arith.fptosi b x Types.I32 in
                [ c; Func_d.return ~operands:[ Op.result1 c ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "truncates" [ Rtval.Int 3 ] r);
    tc "extsi sign-extends an i1, extui zero-extends it" (fun () ->
        (* as LLVM's sext and zext: true is -1 and 1 *)
        let r =
          run_fn ~engine ~args:[ Rtval.Bool true ] ~arg_tys:[ Types.I1 ]
            ~result_tys:[ Types.I32; Types.I32; Types.I64 ]
            (fun b params ->
              match params with
              | [ x ] ->
                let s = Arith.cast b Arith.Extsi x Types.I32 in
                let u = Arith.cast b Arith.Extui x Types.I32 in
                let t = Arith.const_bool b true in
                let s64 = Arith.cast b Arith.Extsi (Op.result1 t) Types.I64 in
                [ s; u; t; s64;
                  Func_d.return
                    ~operands:(List.map Op.result1 [ s; u; s64 ]) () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "sext, zext, sext"
          [ Rtval.Int (-1); Rtval.Int 1; Rtval.Int (-1) ] r);
  ]

(* --- control flow --- *)

let control_tests engine =
  [
    tc "scf.for accumulates through iter args" (fun () ->
        (* sum 0..9 *)
        let r =
          run_fn ~engine ~args:[] ~arg_tys:[] ~result_tys:[ Types.Index ]
            (fun b _ ->
              let z = Arith.const_index b 0 in
              let n = Arith.const_index b 10 in
              let one = Arith.const_index b 1 in
              let loop =
                Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 n)
                  ~step:(Op.result1 one)
                  ~iter_args:[ Op.result1 z ]
                  (fun iv args ->
                    let acc = List.hd args in
                    let s = Arith.addi b acc iv in
                    [ s; Scf.yield ~operands:[ Op.result1 s ] () ])
              in
              [ z; n; one; loop; Func_d.return ~operands:[ Op.result1 loop ] () ])
        in
        check (Alcotest.list rtval) "sum" [ Rtval.Int 45 ] r);
    tc "scf.for with step" (fun () ->
        let r =
          run_fn ~engine ~args:[] ~arg_tys:[] ~result_tys:[ Types.Index ]
            (fun b _ ->
              let z = Arith.const_index b 0 in
              let n = Arith.const_index b 10 in
              let three = Arith.const_index b 3 in
              let loop =
                Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 n)
                  ~step:(Op.result1 three)
                  ~iter_args:[ Op.result1 z ]
                  (fun _ args ->
                    let one = Arith.const_index b 1 in
                    let s = Arith.addi b (List.hd args) (Op.result1 one) in
                    [ one; s; Scf.yield ~operands:[ Op.result1 s ] () ])
              in
              [ z; n; three; loop; Func_d.return ~operands:[ Op.result1 loop ] () ])
        in
        (* iterations at 0,3,6,9 -> 4 *)
        check (Alcotest.list rtval) "trip count" [ Rtval.Int 4 ] r);
    tc "scf.if takes the right branch" (fun () ->
        let branch cond_val =
          run_fn ~engine ~args:[ Rtval.Bool cond_val ] ~arg_tys:[ Types.I1 ]
            ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ c ] ->
                let t = Arith.const_i32 b 1 in
                let f = Arith.const_i32 b 2 in
                let if_op =
                  Scf.if_ b ~cond:c ~result_tys:[ Types.I32 ]
                    ~then_ops:[ t; Scf.yield ~operands:[ Op.result1 t ] () ]
                    ~else_ops:[ f; Scf.yield ~operands:[ Op.result1 f ] () ]
                    ()
                in
                [ if_op; Func_d.return ~operands:[ Op.result1 if_op ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "then" [ Rtval.Int 1 ] (branch true);
        check (Alcotest.list rtval) "else" [ Rtval.Int 2 ] (branch false));
    tc "scf.while counts down" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Int 5 ] ~arg_tys:[ Types.I32 ]
            ~result_tys:[ Types.I32 ]
            (fun b params ->
              match params with
              | [ n ] ->
                let w =
                  Scf.while_ b ~inits:[ n ]
                    ~make_before:(fun args ->
                      let x = List.hd args in
                      let z = Arith.const_i32 b 0 in
                      let c = Arith.cmpi b Arith.Sgt x (Op.result1 z) in
                      [ z; c; Scf.condition ~cond:(Op.result1 c) ~operands:[ x ] ])
                    ~make_after:(fun args ->
                      let x = List.hd args in
                      let one = Arith.const_i32 b 1 in
                      let d = Arith.subi b x (Op.result1 one) in
                      [ one; d; Scf.yield ~operands:[ Op.result1 d ] () ])
                in
                [ w; Func_d.return ~operands:[ Op.result1 w ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "zero" [ Rtval.Int 0 ] r);
    tc "nested function calls" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let inner =
          let double = Arith.addi b x x in
          Func_d.func ~sym_name:"double" ~args:[ x ] ~result_tys:[ Types.I32 ]
            [ double; Func_d.return ~operands:[ Op.result1 double ] () ]
        in
        let y = Builder.fresh b Types.I32 in
        let outer =
          let call = Func_d.call b ~callee:"double" ~operands:[ y ]
              ~result_tys:[ Types.I32 ] in
          Func_d.func ~sym_name:"main_fn" ~args:[ y ] ~result_tys:[ Types.I32 ]
            [ call; Func_d.return ~operands:[ Op.result1 call ] () ]
        in
        let m = Op.module_op [ inner; outer ] in
        let state = Interp.make ~engine [ m ] in
        check (Alcotest.list rtval) "result" [ Rtval.Int 42 ]
          (Interp.run state ~entry:"main_fn" ~args:[ Rtval.Int 21 ]));
    tc "unknown function errors" (fun () ->
        let state = Interp.make ~engine [ Op.module_op [] ] in
        try
          ignore (Interp.run state ~entry:"ghost" ~args:[]);
          Alcotest.fail "expected error"
        with Interp.Interp_error _ -> ());
    tc "step limit aborts runaway loops" (fun () ->
        let b = Builder.create () in
        let z = Arith.const_index b 0 in
        let n = Arith.const_index b 1000000 in
        let one = Arith.const_index b 1 in
        let loop =
          Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 n)
            ~step:(Op.result1 one) (fun _ _ -> [ Scf.yield () ])
        in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ z; n; one; loop; Func_d.return () ]
        in
        let state =
          Interp.make ~engine ~max_steps:100 [ Op.module_op [ fn ] ]
        in
        try
          ignore (Interp.run state ~entry:"f" ~args:[]);
          Alcotest.fail "expected step limit"
        with Interp.Interp_error _ -> ());
    tc "handlers run before defaults" (fun () ->
        let intercepted = ref false in
        let h =
          Interp.handler (fun op ->
              if Op.name op = "arith.constant" then
                Some
                  (fun _ _ ->
                    intercepted := true;
                    [ Rtval.Int 99 ])
              else None)
        in
        let r =
          run_fn ~engine ~handlers:[ h ] ~args:[] ~arg_tys:[]
            ~result_tys:[ Types.I32 ]
            (fun b _ ->
              let c = Arith.const_i32 b 1 in
              [ c; Func_d.return ~operands:[ Op.result1 c ] () ])
        in
        check Alcotest.bool "intercepted" true !intercepted;
        check (Alcotest.list rtval) "handler value" [ Rtval.Int 99 ] r);
    tc "Names-domain handlers only see their ops" (fun () ->
        let seen = ref [] in
        let h =
          Interp.handler ~domain:(Interp.Names [ "arith.addi" ])
            (fun op ->
              Some
                (fun _ _ ->
                  seen := Op.name op :: !seen;
                  [ Rtval.Int 41 ]))
        in
        let r =
          run_fn ~engine ~handlers:[ h ] ~args:[] ~arg_tys:[]
            ~result_tys:[ Types.I32 ]
            (fun b _ ->
              let c = Arith.const_i32 b 1 in
              let a = Arith.addi b (Op.result1 c) (Op.result1 c) in
              [ c; a; Func_d.return ~operands:[ Op.result1 a ] () ])
        in
        check (Alcotest.list rtval) "intercepted value" [ Rtval.Int 41 ] r;
        check (Alcotest.list Alcotest.string) "only addi" [ "arith.addi" ]
          !seen);
    tc "on_loop reports iteration counts" (fun () ->
        let counts = ref [] in
        let b = Builder.create () in
        let z = Arith.const_index b 0 in
        let n = Arith.const_index b 7 in
        let one = Arith.const_index b 1 in
        let loop =
          Scf.for_ b ~lb:(Op.result1 z) ~ub:(Op.result1 n)
            ~step:(Op.result1 one) (fun _ _ -> [ Scf.yield () ])
        in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ z; n; one; loop; Func_d.return () ]
        in
        let state = Interp.make ~engine [ Op.module_op [ fn ] ] in
        state.Interp.on_loop <-
          Some (fun ~loop_key ~iters -> counts := (loop_key, iters) :: !counts);
        ignore (Interp.run state ~entry:"f" ~args:[]);
        match !counts with
        | [ (_, 7) ] -> ()
        | _ -> Alcotest.fail "expected one loop with 7 iterations");
  ]

(* --- memory and omp --- *)

let memory_tests engine =
  [
    tc "alloca, store, load" (fun () ->
        let r =
          run_fn ~engine ~args:[] ~arg_tys:[] ~result_tys:[ Types.F64 ]
            (fun b _ ->
              let buf = Memref_d.alloca b (Types.memref_static [ 4 ] Types.F64) in
              let i = Arith.const_index b 2 in
              let v = Arith.const_f64 b 6.5 in
              let st = Memref_d.store (Op.result1 v) (Op.result1 buf) [ Op.result1 i ] in
              let ld = Memref_d.load b (Op.result1 buf) [ Op.result1 i ] in
              [ buf; i; v; st; ld; Func_d.return ~operands:[ Op.result1 ld ] () ])
        in
        check (Alcotest.list rtval) "roundtrip" [ Rtval.Float 6.5 ] r);
    tc "dynamic alloca takes size operands" (fun () ->
        let r =
          run_fn ~engine ~args:[ Rtval.Int 5 ] ~arg_tys:[ Types.Index ]
            ~result_tys:[ Types.Index ]
            (fun b params ->
              match params with
              | [ n ] ->
                let buf =
                  Memref_d.alloca b ~dynamic_sizes:[ n ]
                    (Types.memref_dynamic 1 Types.F32)
                in
                let z = Arith.const_index b 0 in
                let d = Memref_d.dim b (Op.result1 buf) (Op.result1 z) in
                [ buf; z; d; Func_d.return ~operands:[ Op.result1 d ] () ]
              | _ -> assert false)
        in
        check (Alcotest.list rtval) "dim" [ Rtval.Int 5 ] r);
    tc "memref.dim rejects indices outside the rank" (fun () ->
        List.iter
          (fun k ->
            match
              run_fn ~engine ~args:[] ~arg_tys:[] ~result_tys:[ Types.Index ]
                (fun b _ ->
                  let buf =
                    Memref_d.alloca b (Types.memref_static [ 4 ] Types.F32)
                  in
                  let i = Arith.const_index b k in
                  let d = Memref_d.dim b (Op.result1 buf) (Op.result1 i) in
                  [ buf; i; d; Func_d.return ~operands:[ Op.result1 d ] () ])
            with
            | _ -> Alcotest.failf "dim %d: expected an error" k
            | exception Interp.Interp_error m ->
              check Alcotest.string (Fmt.str "dim %d" k)
                "memref.dim out of range" m)
          [ -1; 1 ]);
    tc "out-of-bounds loads and stores raise Interp_error" (fun () ->
        List.iter
          (fun store ->
            match
              run_fn ~engine ~args:[] ~arg_tys:[] ~result_tys:[]
                (fun b _ ->
                  let buf =
                    Memref_d.alloca b (Types.memref_static [ 4 ] Types.F32)
                  in
                  let i = Arith.const_index b 4 in
                  let v = Arith.const_f32 b 1.0 in
                  let access =
                    if store then
                      Memref_d.store (Op.result1 v) (Op.result1 buf)
                        [ Op.result1 i ]
                    else Memref_d.load b (Op.result1 buf) [ Op.result1 i ]
                  in
                  [ buf; i; v; access; Func_d.return () ])
            with
            | _ -> Alcotest.fail "expected an error"
            | exception Interp.Interp_error m ->
              check Alcotest.string
                (if store then "store" else "load")
                "index 4 out of bounds for dimension of size 4" m)
          [ false; true ]);
    tc "buffers alias through calls" (fun () ->
        (* callee writes through the memref; caller observes it *)
        let b = Builder.create () in
        let p = Builder.fresh b (Types.memref [] Types.I32) in
        let callee =
          let v = Arith.const_i32 b 77 in
          Func_d.func ~sym_name:"set77" ~args:[ p ] ~result_tys:[]
            [ v; Memref_d.store (Op.result1 v) p []; Func_d.return () ]
        in
        let main_fn =
          let buf = Memref_d.alloca b (Types.memref [] Types.I32) in
          let call =
            Func_d.call b ~callee:"set77" ~operands:[ Op.result1 buf ]
              ~result_tys:[]
          in
          let ld = Memref_d.load b (Op.result1 buf) [] in
          Func_d.func ~sym_name:"m" ~args:[] ~result_tys:[ Types.I32 ]
            [ buf; call; ld; Func_d.return ~operands:[ Op.result1 ld ] () ]
        in
        let state = Interp.make ~engine [ Op.module_op [ callee; main_fn ] ] in
        check (Alcotest.list rtval) "aliased" [ Rtval.Int 77 ]
          (Interp.run state ~entry:"m" ~args:[]));
    tc "omp.parallel_do executes sequentially with inclusive bounds" (fun () ->
        let m =
          Ftn_frontend.Frontend.to_core
            "program p\nreal :: a(5)\ninteger :: i\n!$omp target parallel do\ndo i = 1, 5\na(i) = real(i)\nend do\n!$omp end target parallel do\nprint *, a(5)\nend program"
        in
        let out, _ = Ftn_runtime.Executor.run_cpu ~engine m in
        check Alcotest.bool "a(5)=5" true
          (Astring_like.contains out "5.000000"));
    tc "omp.parallel_do with more bound dims than ivs doesn't crash" (fun () ->
        (* collapse=2 with a single induction variable is rejected by the
           verifier, but the interpreter must still take the safe tail
           rather than crash on List.tl — run it unverified. *)
        let b = Builder.create () in
        let lb = Arith.const_index b 1 in
        let ub = Arith.const_index b 2 in
        let step = Arith.const_index b 1 in
        let buf = Memref_d.alloca b (Types.memref [] Types.I32) in
        let iv = Builder.fresh b Types.Index in
        let body =
          let ld = Memref_d.load b (Op.result1 buf) [] in
          let one = Arith.const_i32 b 1 in
          let s = Arith.addi b (Op.result1 ld) (Op.result1 one) in
          [ ld; one; s;
            Memref_d.store (Op.result1 s) (Op.result1 buf) [];
            Omp.terminator () ]
        in
        let pd =
          Op.make "omp.parallel_do"
            ~operands:
              [ Op.result1 lb; Op.result1 ub; Op.result1 step;
                Op.result1 lb; Op.result1 ub; Op.result1 step ]
            ~attrs:[ ("collapse", Attr.i32 2); ("simd", Attr.Bool false) ]
            ~regions:[ Op.region ~args:[ iv ] body ]
        in
        let ld2 = Memref_d.load b (Op.result1 buf) [] in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[ Types.I32 ]
            [ lb; ub; step; buf; pd; ld2;
              Func_d.return ~operands:[ Op.result1 ld2 ] () ]
        in
        let state = Interp.make ~engine [ Op.module_op [ fn ] ] in
        check (Alcotest.list rtval) "2x2 iterations" [ Rtval.Int 4 ]
          (Interp.run state ~entry:"f" ~args:[]));
    tc "print intrinsics capture output" (fun () ->
        let m =
          Ftn_frontend.Frontend.to_core
            "program p\nprint *, 'hello', 3, 2.5\nend program"
        in
        let out, _ = Ftn_runtime.Executor.run_cpu ~engine m in
        check Alcotest.bool "text" true (Astring_like.contains out "hello");
        check Alcotest.bool "int" true (Astring_like.contains out "3");
        check Alcotest.bool "float" true (Astring_like.contains out "2.5"));
  ]

let stream_tests engine =
  [
    tc "streams are FIFOs" (fun () ->
        let b = Builder.create () in
        let ops = ref [] in
        let emit op = ops := op :: !ops in
        let emit_get op =
          emit op;
          Op.result1 op
        in
        let s = emit_get (Ftn_dialects.Hls.stream_create b Types.F32) in
        let c1 = emit_get (Arith.const_f32 b 1.5) in
        let c2 = emit_get (Arith.const_f32 b 2.5) in
        emit (Ftn_dialects.Hls.stream_write ~stream:s ~value:c1);
        emit (Ftn_dialects.Hls.stream_write ~stream:s ~value:c2);
        let r1 = emit_get (Ftn_dialects.Hls.stream_read b s) in
        let r2 = emit_get (Ftn_dialects.Hls.stream_read b s) in
        let sub = emit_get (Arith.subf b r2 r1) in
        emit (Func_d.return ~operands:[ sub ] ());
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[ Types.F32 ]
            (List.rev !ops)
        in
        let state = Interp.make ~engine [ Op.module_op [ fn ] ] in
        check (Alcotest.list rtval) "fifo order" [ Rtval.Float 1.0 ]
          (Interp.run state ~entry:"f" ~args:[]));
    tc "reading an empty stream errors" (fun () ->
        let b = Builder.create () in
        let s_op = Ftn_dialects.Hls.stream_create b Types.F32 in
        let rd = Ftn_dialects.Hls.stream_read b (Op.result1 s_op) in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ s_op; rd; Func_d.return () ]
        in
        let state = Interp.make ~engine [ Op.module_op [ fn ] ] in
        try
          ignore (Interp.run state ~entry:"f" ~args:[]);
          Alcotest.fail "expected error"
        with Interp.Interp_error _ -> ());
  ]

(* --- engine equivalence --- *)

(* Programs for the step-limit sweep: loops, branches, calls, prints, a
   do-while with an if/else, a kernel that stores one element past the
   end of its array and one that divides by zero. *)
let sweep_sources =
  [
    ("saxpy n=8", Ftn_linpack.Fortran_sources.saxpy ~n:8);
    ("sgesl n=6", Ftn_linpack.Fortran_sources.sgesl ~n:6);
    ("stencil n=8x2", Ftn_linpack.Fortran_sources.stencil ~n:8 ~steps:2);
    ( "do while",
      "program w\n\
       implicit none\n\
       integer :: i, s\n\
       i = 0\n\
       s = 0\n\
       do while (i < 6)\n\
       i = i + 1\n\
       if (i > 3) then\n\
       s = s + i\n\
       else\n\
       s = s - 1\n\
       end if\n\
       end do\n\
       print *, i, s\n\
       end program w\n" );
    ( "out-of-bounds kernel",
      "program oob\n\
       implicit none\n\
       real :: a(16)\n\
       integer :: i\n\
       do i = 1, 16\n\
       a(i) = 0.0\n\
       end do\n\
       print *, 'start'\n\
       !$omp target parallel do map(tofrom:a)\n\
       do i = 1, 17\n\
       a(i) = real(i)\n\
       end do\n\
       !$omp end target parallel do\n\
       print *, a(1)\n\
       end program oob\n" );
    ( "division by zero kernel",
      "program div0\n\
       implicit none\n\
       integer :: a(8)\n\
       integer :: i, z\n\
       z = 0\n\
       do i = 1, 8\n\
       a(i) = i\n\
       end do\n\
       !$omp target parallel do map(tofrom:a) map(to:z)\n\
       do i = 1, 8\n\
       a(i) = a(i) / z\n\
       end do\n\
       !$omp end target parallel do\n\
       print *, a(1)\n\
       end program div0\n" );
  ]

(* Everything a run of [m]'s main program under [max_steps] lets a caller
   see: its outcome (results or error message), steps, printed output and
   executed op counts. *)
let limited_run m ~max_steps engine =
  let sink = Intrinsics.make_sink () in
  let state =
    Interp.make ~max_steps ~engine
      ~handlers:
        [ Intrinsics.print_handler (fun _ -> sink);
          Intrinsics.runtime_library_handler ]
      [ m ]
  in
  Ftn_obs.Profile.reset ();
  let outcome =
    match
      Interp.call_function state (Option.get (Interp.main_function m)) []
    with
    | r -> Fmt.str "%a" (Fmt.Dump.list Rtval.pp) r
    | exception Interp.Interp_error msg -> "error: " ^ msg
  in
  ( outcome,
    state.Interp.steps,
    Intrinsics.contents sink,
    List.filter (fun (_, n) -> n > 0) (Ftn_obs.Profile.ops ()) )

let engine_tests =
  [
    tc "tree and compiled agree on results and steps" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let inner =
          let d = Arith.addi b x x in
          Func_d.func ~sym_name:"double" ~args:[ x ] ~result_tys:[ Types.I32 ]
            [ d; Func_d.return ~operands:[ Op.result1 d ] () ]
        in
        let main_fn =
          let z = Arith.const_i32 b 0 in
          let lb = Arith.const_index b 0 in
          let ub = Arith.const_index b 8 in
          let one = Arith.const_index b 1 in
          let loop =
            Scf.for_ b ~lb:(Op.result1 lb) ~ub:(Op.result1 ub)
              ~step:(Op.result1 one)
              ~iter_args:[ Op.result1 z ]
              (fun iv args ->
                let i32 = Arith.index_cast b iv Types.I32 in
                let c =
                  Func_d.call b ~callee:"double"
                    ~operands:[ Op.result1 i32 ] ~result_tys:[ Types.I32 ]
                in
                let s = Arith.addi b (List.hd args) (Op.result1 c) in
                [ i32; c; s; Scf.yield ~operands:[ Op.result1 s ] () ])
          in
          Func_d.func ~sym_name:"m" ~args:[] ~result_tys:[ Types.I32 ]
            [ z; lb; ub; one; loop;
              Func_d.return ~operands:[ Op.result1 loop ] () ]
        in
        let m = Op.module_op [ inner; main_fn ] in
        Verifier.verify_exn m;
        let run engine =
          let state = Interp.make ~engine [ m ] in
          let r = Interp.run state ~entry:"m" ~args:[] in
          (r, state.Interp.steps)
        in
        let r_tree, steps_tree = run `Tree in
        let r_comp, steps_comp = run `Compiled in
        check (Alcotest.list rtval) "same results" r_tree r_comp;
        check Alcotest.int "same steps" steps_tree steps_comp;
        (* sum over i in 0..7 of 2i *)
        check (Alcotest.list rtval) "value" [ Rtval.Int 56 ] r_comp);
    tc "handlers see and return the same values under both engines"
      (fun () ->
        (* an external call: the handler records the constructors of the
           operands it receives and answers with a Float and a Bool, which
           the caller then computes with *)
        let b = Builder.create () in
        let ops =
          [
            Arith.const_i32 b 7; Arith.const_f32 b 0.1; Arith.const_bool b true;
            Arith.const_index b 3; Arith.const_f64 b 2.5;
          ]
        in
        let call =
          Func_d.call b ~callee:"ext" ~operands:(List.map Op.result1 ops)
            ~result_tys:[ Types.F32; Types.I1 ]
        in
        let r0, r1 =
          match Op.results call with [ x; y ] -> (x, y) | _ -> assert false
        in
        let c = Arith.const_f32 b 0.1 in
        let s = Arith.addf b r0 (Op.result1 c) in
        let sel = Arith.select b r1 (Op.result1 s) r0 in
        let fn =
          Func_d.func ~sym_name:"f" ~args:[]
            ~result_tys:[ Types.F32; Types.I1; Types.F32 ]
            (ops
            @ [ call; c; s; sel;
                Func_d.return
                  ~operands:[ Op.result1 sel; r1; r0 ] () ])
        in
        let m =
          Op.module_op
            [ Func_d.func_decl ~sym_name:"ext"
                ~arg_tys:[ Types.I32; Types.F32; Types.I1; Types.Index; Types.F64 ]
                ~result_tys:[ Types.F32; Types.I1 ] ();
              fn ]
        in
        Verifier.verify_exn m;
        let constructor = function
          | Rtval.Unit -> "Unit"
          | Rtval.Int _ -> "Int"
          | Rtval.Float _ -> "Float"
          | Rtval.Bool _ -> "Bool"
          | Rtval.Buf _ -> "Buf"
          | Rtval.Handle _ -> "Handle"
          | Rtval.Proto _ -> "Proto"
          | Rtval.StreamQ _ -> "StreamQ"
        in
        let run engine =
          let seen = ref [] in
          let h =
            Interp.handler ~domain:Interp.calls (fun op ->
                if Op.symbol_attr op "callee" = Some "ext" then
                  Some
                    (fun _ operands ->
                      seen := List.map constructor operands;
                      [ Rtval.Float 1.25; Rtval.Bool true ])
                else None)
          in
          let state = Interp.make ~handlers:[ h ] ~engine [ m ] in
          let r = Interp.run state ~entry:"f" ~args:[] in
          (!seen, r, state.Interp.steps)
        in
        let seen_t, r_t, steps_t = run `Tree in
        let seen_c, r_c, steps_c = run `Compiled in
        check (Alcotest.list Alcotest.string) "operand constructors"
          [ "Int"; "Float"; "Bool"; "Int"; "Float" ] seen_t;
        check (Alcotest.list Alcotest.string) "same operands" seen_t seen_c;
        check (Alcotest.list rtval) "same results" r_t r_c;
        check Alcotest.int "same steps" steps_t steps_c);
    tc "malformed ops fail only when executed, with the same message"
      (fun () ->
        (* unverified IR: a one-operand addi, a cmpf with an unknown
           predicate and a load without operands, each reached only when
           the flag argument is true *)
        let run_malformed bad engine =
          let b = Builder.create () in
          let flag = Builder.fresh b Types.I1 in
          let x = Arith.const_f32 b 1.0 in
          let body =
            match bad with
            | `Addi ->
              [ Builder.op1 b "arith.addi" ~operands:[ Op.result1 x ]
                  Types.I32 ]
            | `Cmpf ->
              [ Builder.op1 b "arith.cmpf"
                  ~operands:[ Op.result1 x; Op.result1 x ]
                  ~attrs:[ ("predicate", Attr.String "sometimes") ]
                  Types.I1 ]
            | `Load -> [ Builder.op1 b "memref.load" Types.F32 ]
          in
          let guarded =
            Scf.if_ b ~cond:flag ~then_ops:(body @ [ Scf.yield () ]) ()
          in
          let fn =
            Func_d.func ~sym_name:"f" ~args:[ flag ] ~result_tys:[]
              [ x; guarded; Func_d.return () ]
          in
          let state = Interp.make ~engine [ Op.module_op [ fn ] ] in
          let outcome taken =
            match Interp.run state ~entry:"f" ~args:[ Rtval.Bool taken ] with
            | _ -> "ok"
            | exception Interp.Interp_error m -> m
          in
          (outcome false, outcome true, state.Interp.steps)
        in
        List.iter
          (fun (bad, message) ->
            let t = run_malformed bad `Tree in
            let c = run_malformed bad `Compiled in
            let skipped, reached, _ = c in
            check Alcotest.string "dead malformed op stays dead" "ok" skipped;
            check Alcotest.string "message" message reached;
            check
              Alcotest.(triple string string int)
              "engines agree" t c)
          [
            (`Addi, "arith.addi expects two operands");
            (`Cmpf, "unknown cmpf predicate sometimes");
            (`Load, "memref.load expects operands");
          ]);
    tc "compiled SAXPY allocates at most one word per step" (fun () ->
        (* Second runs of already-compiled code, so what is left is the
           per-step cost of frames and op closures. Minor-heap words are
           deterministic for a given program and input. *)
        let art =
          Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:10_000)
        in
        let words_per_step what state ~fresh_args fn =
          ignore (Interp.call_function state fn (fresh_args ()));
          let args = fresh_args () in
          let steps0 = state.Interp.steps in
          let w0 = Gc.minor_words () in
          ignore (Interp.call_function state fn args);
          let w = Gc.minor_words () -. w0 in
          let per_step = w /. float_of_int (state.Interp.steps - steps0) in
          check Alcotest.bool
            (Fmt.str "%s: %.2f words/step <= 1.0" what per_step)
            true (per_step <= 1.0)
        in
        let device = Option.get art.Core.Compiler.device_hls in
        let kernel = List.find Func_d.has_body (Op.module_body device) in
        let n = 10_000 in
        words_per_step "kernel"
          (Interp.make ~engine:`Compiled [ device ])
          ~fresh_args:(fun () ->
            let buf shape =
              Rtval.Buf (Rtval.alloc_buffer ~memory_space:1 Types.F32 shape)
            in
            [ buf [ n ]; buf [ n ]; buf [] ])
          kernel;
        let core = art.Core.Compiler.core_module in
        let sink = Intrinsics.make_sink () in
        words_per_step "cpu program"
          (Interp.make ~engine:`Compiled
             ~handlers:
               [ Intrinsics.print_handler (fun _ -> sink);
                 Intrinsics.runtime_library_handler ]
             [ core ])
          ~fresh_args:(fun () -> [])
          (Option.get (Interp.main_function core)));
    tc "compiled functions are cached per state" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let fn =
          let d = Arith.addi b x x in
          Func_d.func ~sym_name:"double" ~args:[ x ] ~result_tys:[ Types.I32 ]
            [ d; Func_d.return ~operands:[ Op.result1 d ] () ]
        in
        let m = Op.module_op [ fn ] in
        let state = Interp.make ~engine:`Compiled [ m ] in
        let before =
          Ftn_obs.Metrics.counter_value "interp.compile_cache_hits"
        in
        ignore (Interp.run state ~entry:"double" ~args:[ Rtval.Int 1 ]);
        ignore (Interp.run state ~entry:"double" ~args:[ Rtval.Int 2 ]);
        ignore (Interp.run state ~entry:"double" ~args:[ Rtval.Int 3 ]);
        let after =
          Ftn_obs.Metrics.counter_value "interp.compile_cache_hits"
        in
        check Alcotest.bool "relaunches hit the cache" true
          (after - before >= 2));
    tc "both engines agree at every step limit, profiled or not" (fun () ->
        let mismatches = ref [] and limits = ref 0 in
        Fun.protect
          ~finally:(fun () ->
            Ftn_obs.Profile.set_enabled false;
            Ftn_obs.Profile.reset ())
          (fun () ->
            List.iter
              (fun (name, src) ->
                let m = (Core.Compiler.compile src).Core.Compiler.core_module in
                Ftn_obs.Profile.set_enabled false;
                let _, full, _, _ =
                  limited_run m ~max_steps:max_int `Tree
                in
                List.iter
                  (fun profiled ->
                    Ftn_obs.Profile.set_enabled profiled;
                    for max_steps = 1 to full + 2 do
                      incr limits;
                      let tree = limited_run m ~max_steps `Tree in
                      let comp = limited_run m ~max_steps `Compiled in
                      if tree <> comp then
                        mismatches :=
                          Fmt.str "%s, max_steps %d%s" name max_steps
                            (if profiled then ", profiled" else "")
                          :: !mismatches
                    done)
                  [ false; true ])
              sweep_sources);
        match List.rev !mismatches with
        | [] -> ()
        | first :: _ as all ->
          Alcotest.failf "%d of %d limits disagree, first: %s"
            (List.length all) !limits first);
  ]

let () =
  let per_engine mk =
    List.map (fun (tag, engine) -> (tag, mk engine)) engines
  in
  Alcotest.run "interp"
    ([ ("rtval", rtval_tests) ]
    @ List.concat_map
        (fun (name, mk) ->
          per_engine mk
          |> List.map (fun (tag, tests) -> (name ^ "-" ^ tag, tests)))
        [
          ("scalars", scalar_tests);
          ("control", control_tests);
          ("memory", memory_tests);
          ("streams", stream_tests);
        ]
    @ [ ("engines", engine_tests) ])
