(* Tests for the transformation passes: canonicalisation, the paper's two
   device lowering passes, module splitting, the HLS loop lowering with
   simd/reduction handling, hls-to-func and the llvm conversion. *)

open Ftn_ir
open Ftn_dialects
open Ftn_passes

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let count name m = Op.count (fun o -> Op.name o = name) m

let wrap_fn ?(args = []) body =
  Op.module_op
    [ Func_d.func ~sym_name:"f" ~args ~result_tys:[]
        (body @ [ Func_d.return () ]) ]

(* --- canonicalize --- *)

let canonicalize_tests =
  [
    tc "constant folding collapses arithmetic" (fun () ->
        let b = Builder.create () in
        let c1 = Arith.const_i32 b 2 in
        let c2 = Arith.const_i32 b 3 in
        let add = Arith.addi b (Op.result1 c1) (Op.result1 c2) in
        let keep = Op.make "test.keep" ~operands:[ Op.result1 add ] in
        let m = Canonicalize.run (wrap_fn [ c1; c2; add; keep ]) in
        check Alcotest.int "no addi" 0 (count "arith.addi" m);
        let consts = Op.collect Arith.is_constant m in
        check Alcotest.bool "5 materialised" true
          (List.exists (fun c -> Arith.constant_int c = Some 5) consts));
    tc "cmp folding" (fun () ->
        let b = Builder.create () in
        let c1 = Arith.const_index b 1 in
        let c2 = Arith.const_index b 2 in
        let cmp = Arith.cmpi b Arith.Slt (Op.result1 c1) (Op.result1 c2) in
        let keep = Op.make "test.keep" ~operands:[ Op.result1 cmp ] in
        let m = Canonicalize.run (wrap_fn [ c1; c2; cmp; keep ]) in
        check Alcotest.int "no cmpi" 0 (count "arith.cmpi" m));
    tc "select with constant condition folds away" (fun () ->
        let b = Builder.create () in
        let c = Arith.const_bool b true in
        let x = Arith.const_i32 b 10 in
        let y = Arith.const_i32 b 20 in
        let sel = Arith.select b (Op.result1 c) (Op.result1 x) (Op.result1 y) in
        let keep = Op.make "test.keep" ~operands:[ Op.result1 sel ] in
        let m = Canonicalize.run (wrap_fn [ c; x; y; sel; keep ]) in
        check Alcotest.int "no select" 0 (count "arith.select" m);
        let keep' = List.hd (Op.collect (fun o -> Op.name o = "test.keep") m) in
        check Alcotest.bool "kept x" true
          (Value.equal (Op.result1 x) (Op.operand keep' 0)));
    tc "cse merges identical pure ops" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let a1 = Arith.addi b x x in
        let a2 = Arith.addi b x x in
        let keep =
          Op.make "test.keep" ~operands:[ Op.result1 a1; Op.result1 a2 ]
        in
        let m = Canonicalize.cse (wrap_fn ~args:[ x ] [ a1; a2; keep ]) in
        check Alcotest.int "one addi" 1 (count "arith.addi" m);
        let keep' = List.hd (Op.collect (fun o -> Op.name o = "test.keep") m) in
        check Alcotest.bool "both operands same" true
          (Value.equal (Op.operand keep' 0) (Op.operand keep' 1)));
    tc "cse does not merge across attrs" (fun () ->
        let pairs =
          [
            ( "i32 1 and 2",
              (fun b -> Arith.const_i32 b 1),
              fun b -> Arith.const_i32 b 2 );
            ( "f32 0.0 and -0.0",
              (fun b -> Arith.const_f32 b 0.0),
              fun b -> Arith.const_f32 b (-0.0) );
            ( "f32 and f64 1.5",
              (fun b -> Arith.const_f32 b 1.5),
              fun b -> Arith.const_f64 b 1.5 );
            ( "i32 and index 3",
              (fun b -> Arith.const_i32 b 3),
              fun b -> Arith.const_index b 3 );
          ]
        in
        List.iter
          (fun (label, mk1, mk2) ->
            let b = Builder.create () in
            let c1 = mk1 b and c2 = mk2 b in
            let keep =
              Op.make "test.keep" ~operands:[ Op.result1 c1; Op.result1 c2 ]
            in
            let m = Canonicalize.cse (wrap_fn [ c1; c2; keep ]) in
            check Alcotest.int label 2 (count "arith.constant" m))
          pairs);
    tc "cse compares float constants by bit pattern" (fun () ->
        (* both print as 1.234568e+07, so a key built from the printed
           attribute would merge them *)
        let b = Builder.create () in
        let c1 = Arith.const_f64 b 12345678.0 in
        let c2 = Arith.const_f64 b 12345679.0 in
        let z1 = Arith.const_f32 b (-0.0) in
        let z2 = Arith.const_f32 b (-0.0) in
        let keep =
          Op.make "test.keep"
            ~operands:(List.map Op.result1 [ c1; c2; z1; z2 ])
        in
        let m = Canonicalize.cse (wrap_fn [ c1; c2; z1; z2; keep ]) in
        check Alcotest.int "distinct values kept, equal -0.0s merged" 3
          (count "arith.constant" m));
    tc "store-to-load forwarding on scalar allocas" (fun () ->
        let b = Builder.create () in
        let slot = Memref_d.alloca b (Types.memref [] Types.F32) in
        let v = Arith.const_f32 b 1.0 in
        let st = Memref_d.store (Op.result1 v) (Op.result1 slot) [] in
        let ld = Memref_d.load b (Op.result1 slot) [] in
        let keep = Op.make "test.keep" ~operands:[ Op.result1 ld ] in
        let m = Canonicalize.forward_stores (wrap_fn [ slot; v; st; ld; keep ]) in
        check Alcotest.int "load gone" 0 (count "memref.load" m);
        let keep' = List.hd (Op.collect (fun o -> Op.name o = "test.keep") m) in
        check Alcotest.bool "forwarded" true
          (Value.equal (Op.result1 v) (Op.operand keep' 0)));
    tc "forwarding stops at calls" (fun () ->
        let b = Builder.create () in
        let slot = Memref_d.alloca b (Types.memref [] Types.F32) in
        let v = Arith.const_f32 b 1.0 in
        let st = Memref_d.store (Op.result1 v) (Op.result1 slot) [] in
        let call = Func_d.call b ~callee:"g" ~operands:[ Op.result1 slot ] ~result_tys:[] in
        let ld = Memref_d.load b (Op.result1 slot) [] in
        let keep = Op.make "test.keep" ~operands:[ Op.result1 ld ] in
        let m =
          Canonicalize.forward_stores (wrap_fn [ slot; v; st; call; ld; keep ])
        in
        check Alcotest.int "load kept" 1 (count "memref.load" m));
    tc "dce removes unused pure ops" (fun () ->
        let b = Builder.create () in
        let dead = Arith.const_i32 b 5 in
        let live = Arith.const_i32 b 6 in
        let keep = Op.make "test.keep" ~operands:[ Op.result1 live ] in
        let m = Canonicalize.dce (wrap_fn [ dead; live; keep ]) in
        check Alcotest.int "one constant" 1 (count "arith.constant" m));
    tc "dce keeps stores and calls" (fun () ->
        let b = Builder.create () in
        let slot = Memref_d.alloca b (Types.memref [] Types.F32) in
        let v = Arith.const_f32 b 1.0 in
        let st = Memref_d.store (Op.result1 v) (Op.result1 slot) [] in
        let ld = Memref_d.load b (Op.result1 slot) [] in
        let keep = Op.make "test.keep" ~operands:[ Op.result1 ld ] in
        let m = Canonicalize.dce (wrap_fn [ slot; v; st; ld; keep ]) in
        check Alcotest.int "store kept" 1 (count "memref.store" m));
    tc "store-only allocas are removed" (fun () ->
        let b = Builder.create () in
        let slot = Memref_d.alloca b (Types.memref [] Types.I32) in
        let v = Arith.const_i32 b 1 in
        let st = Memref_d.store (Op.result1 v) (Op.result1 slot) [] in
        let m = Canonicalize.run (wrap_fn [ slot; v; st ]) in
        check Alcotest.int "alloca gone" 0 (count "memref.alloca" m);
        check Alcotest.int "store gone" 0 (count "memref.store" m));
    tc "cse does not merge across block boundaries" (fun () ->
        let b = Builder.create () in
        let cond = Builder.fresh b Types.I1 in
        let mk () = Arith.const_i32 b 7 in
        let c_then = mk () and c_else = mk () in
        let if_op =
          Scf.if_ b ~cond ~result_tys:[ Types.I32 ]
            ~then_ops:[ c_then; Scf.yield ~operands:[ Op.result1 c_then ] () ]
            ~else_ops:[ c_else; Scf.yield ~operands:[ Op.result1 c_else ] () ]
            ()
        in
        let keep = Op.make "test.keep" ~operands:[ Op.result1 if_op ] in
        let m =
          Canonicalize.cse (wrap_fn ~args:[ cond ] [ if_op; keep ])
        in
        (* each branch keeps its own constant: values may not float across
           regions *)
        check Alcotest.int "two constants" 2 (count "arith.constant" m));
    tc "full pipeline cleans the loop-var pattern" (fun () ->
        (* iv -> store to alloca -> load in same block: should fold to
           direct uses of the iv and drop the alloca *)
        let m =
          Ftn_frontend.Frontend.to_core
            "program p\nreal :: a(8)\ninteger :: i\ndo i = 1, 8\na(i) = real(i)\nend do\nend program"
        in
        let m' = Canonicalize.run m in
        check Alcotest.int "loads eliminated in loop" 0 (count "memref.load" m'));
    tc "config is at a fixpoint after one apply on every source" (fun () ->
        (* the core, host, device_hls and device_llvm modules of all six
           source generators: a second apply of the canonicalize config
           to the output of the first fires, folds and erases nothing *)
        let open Ftn_linpack.Fortran_sources in
        List.iter
          (fun (source, src) ->
            let core = Ftn_frontend.Frontend.to_core src in
            let c = Pipeline.run_mid_end core in
            List.iter
              (fun (stage, m) ->
                let once = Rewrite.apply ~config:Canonicalize.config [] m in
                let twice, st =
                  Rewrite.apply_with_stats ~config:Canonicalize.config [] once
                in
                let what = source ^ "/" ^ stage in
                check Alcotest.int (what ^ " fired") 0 st.Rewrite.patterns_fired;
                check Alcotest.int (what ^ " folded") 0 st.Rewrite.ops_folded;
                check Alcotest.int (what ^ " erased") 0 st.Rewrite.ops_erased;
                check Alcotest.string (what ^ " print")
                  (Printer.to_string once) (Printer.to_string twice))
              [
                ("core", core);
                ("host", c.Pipeline.host);
                ("device_hls", Option.get c.Pipeline.device_hls);
                ("device_llvm", Option.get c.Pipeline.device_llvm);
              ])
          [
            ("sgesl", sgesl ~n:16);
            ("many_kernels", many_kernels ~kernels:4 ~n:64);
            ("saxpy", saxpy ~n:1000);
            ("dot_product", dot_product ~n:64 ~simdlen:4);
            ("data_regions", data_regions ~n:64);
            ("stencil", stencil ~n:32 ~steps:2);
          ]);
    tc "a forwarded load's uses in a later loop follow it" (fun () ->
        (* %3 = load %1 forwards to the stored constant; the loop body's
           store of %3 must store the constant too, or erasing the load
           leaves it using an undefined value *)
        let b = Builder.create () in
        let out = Builder.fresh b (Types.memref_static [ 8 ] Types.F32) in
        let slot = Memref_d.alloca b (Types.memref [] Types.F32) in
        let two = Arith.const_f32 b 2.0 in
        let st = Memref_d.store (Op.result1 two) (Op.result1 slot) [] in
        let ld = Memref_d.load b (Op.result1 slot) [] in
        let bound n = Arith.const_index b n in
        let lb = bound 0 and ub = bound 8 and step = bound 1 in
        let loop =
          Scf.for_ b ~lb:(Op.result1 lb) ~ub:(Op.result1 ub)
            ~step:(Op.result1 step) (fun iv _ ->
              [ Memref_d.store (Op.result1 ld) out [ iv ]; Scf.yield () ])
        in
        let m =
          Canonicalize.run
            (wrap_fn ~args:[ out ] [ slot; two; st; ld; lb; ub; step; loop ])
        in
        check
          Alcotest.(list string)
          "verifies" []
          (List.map
             (fun d -> d.Ftn_diag.Diag.message)
             (Verifier.verify m));
        check Alcotest.int "alloca gone" 0 (count "memref.alloca" m);
        let loop' = List.hd (Op.collect Scf.is_for m) in
        match Op.collect Memref_d.is_store loop' with
        | [ store ] ->
          check Alcotest.bool "the loop stores the constant" true
            (Value.equal (Op.operand store 0) (Op.result1 two))
        | stores ->
          Alcotest.failf "%d stores in the loop" (List.length stores));
    tc "cse and forwarding return a module they leave alone" (fun () ->
        (* a second sweep over a swept module finds nothing to merge or
           forward, and hands back the very module it was given *)
        let open Ftn_linpack.Fortran_sources in
        List.iter
          (fun (source, src) ->
            let core = Ftn_frontend.Frontend.to_core src in
            List.iter
              (fun (sweep, f) ->
                let once = f core in
                check Alcotest.bool (source ^ " " ^ sweep) true (f once == once))
              [
                ("cse", Canonicalize.cse);
                ("forward_stores", Canonicalize.forward_stores);
              ])
          [
            ("sgesl", sgesl ~n:16);
            ("many_kernels", many_kernels ~kernels:4 ~n:64);
            ("saxpy", saxpy ~n:1000);
            ("dot_product", dot_product ~n:64 ~simdlen:4);
            ("data_regions", data_regions ~n:64);
            ("stencil", stencil ~n:32 ~steps:2);
          ]);
    tc "cse merges a nested op whose operand merged outside its block"
      (fun () ->
        (* the two constants merge in the function body; inside the loop
           the adds then read the same operands and merge too *)
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let one () = Arith.const_i32 b 1 in
        let c1 = one () and c2 = one () in
        let bound n = Arith.const_index b n in
        let lb = bound 0 and ub = bound 4 and step = bound 1 in
        let loop =
          Scf.for_ b ~lb:(Op.result1 lb) ~ub:(Op.result1 ub)
            ~step:(Op.result1 step) (fun _ _ ->
              let a1 = Arith.addi b x (Op.result1 c1) in
              let a2 = Arith.addi b x (Op.result1 c2) in
              [
                a1; a2;
                Op.make "test.keep" ~operands:[ Op.result1 a1; Op.result1 a2 ];
                Scf.yield ();
              ])
        in
        let m =
          Canonicalize.cse
            (wrap_fn ~args:[ x ] [ c1; c2; lb; ub; step; loop ])
        in
        check Alcotest.int "one addi" 1 (count "arith.addi" m);
        Verifier.verify_exn m);
  ]

(* --- allocation of the rewrite driver --- *)

let driver_alloc_tests =
  [
    tc "a driver run that fires nothing allocates a bounded amount per op"
      (fun () ->
        (* a pattern rooted at func.func that always declines, over the
           host module of SGESL n=64: import builds one node per op, only
           the functions are seeded and visited, and the export hands
           back the input. It allocates 45.3 minor words per op; before
           seeding and sharing the same run allocated 119.4. The bound is
           about 1.5x the measurement. *)
        let host =
          (Pipeline.run_mid_end
             (Ftn_frontend.Frontend.to_core
                (Ftn_linpack.Fortran_sources.sgesl ~n:64)))
            .Pipeline.host
        in
        let never =
          Rewrite.compile
            [ Rewrite.pattern ~roots:[ "func.func" ] "never" (fun _ _ -> None) ]
        in
        let run () = Rewrite.apply_compiled_with_stats never host in
        ignore (run ());
        let words0 = Gc.minor_words () in
        let out, st = run () in
        let per_op =
          (Gc.minor_words () -. words0) /. float_of_int (Pass.count_ops host)
        in
        check Alcotest.int "nothing fired" 0 st.Rewrite.patterns_fired;
        check Alcotest.bool "input returned" true (out == host);
        check Alcotest.bool
          (Fmt.str "%.1f minor words per op <= 68" per_op)
          true (per_op <= 68.0));
  ]

(* --- lower_omp_data --- *)

let saxpy_core () =
  Ftn_frontend.Frontend.to_core
    "program p\nreal :: x(8), y(8)\nreal :: a\ninteger :: i\na = 2.0\n!$omp target parallel do simd simdlen(4) map(to:x) map(tofrom:y)\ndo i = 1, 8\ny(i) = y(i) + a * x(i)\nend do\n!$omp end target parallel do simd\nend program"

let data_regions_core () =
  Ftn_frontend.Frontend.to_core (Ftn_linpack.Fortran_sources.data_regions ~n:8)

let omp_data_tests =
  [
    tc "map_info becomes device data management" (fun () ->
        let m = Lower_omp_data.run (saxpy_core ()) in
        check Alcotest.int "no map_info" 0 (count "omp.map_info" m);
        check Alcotest.int "no bounds" 0 (count "omp.bounds_info" m);
        check Alcotest.int "acquires" 3 (count "device.data_acquire" m);
        check Alcotest.int "releases" 3 (count "device.data_release" m);
        check Alcotest.int "allocs" 3 (count "device.alloc" m);
        check Alcotest.int "lookups" 3 (count "device.lookup" m);
        Verifier.verify_exn m);
    tc "copy directions follow map types" (fun () ->
        let m = Lower_omp_data.run (saxpy_core ()) in
        (* x: to, y: tofrom, a: implicit to -> 3 h2d conditionals; only y
           copies back -> dma_starts: 3 in + 1 out = 4 *)
        check Alcotest.int "dma count" 4 (count "memref.dma_start" m));
    tc "target operands become device memrefs" (fun () ->
        let m = Lower_omp_data.run (saxpy_core ()) in
        let target = List.hd (Op.collect Omp.is_target m) in
        List.iter
          (fun v ->
            match Value.ty v with
            | Types.Memref mi ->
              check Alcotest.int "space 1" 1 mi.Types.memory_space
            | _ -> Alcotest.fail "not a memref")
          (Op.operands target);
        (* block args follow *)
        let blk = Op.region_block target 0 in
        List.iter
          (fun v ->
            match Value.ty v with
            | Types.Memref mi -> check Alcotest.int "arg space" 1 mi.Types.memory_space
            | _ -> Alcotest.fail "arg not memref")
          blk.Op.args);
    tc "memory space is configurable" (fun () ->
        let m =
          Lower_omp_data.run
            ~options:{ Lower_omp_data.memory_space = 2; hbm_banks = 1 }
            (saxpy_core ())
        in
        let alloc = List.hd (Op.collect Device.is_alloc m) in
        check Alcotest.int "space 2" 2 (Device.op_memory_space alloc));
    tc "nested data region keeps single data ops per construct" (fun () ->
        let m = Lower_omp_data.run (data_regions_core ()) in
        (* target data maps a; inner target maps b + implicit a ->
           acquires: 1 (outer a) + 2 (inner b, a) = 3 *)
        check Alcotest.int "acquires" 3 (count "device.data_acquire" m);
        check Alcotest.int "releases" 3 (count "device.data_release" m);
        check Alcotest.int "no target_data left" 0 (count "omp.target_data" m);
        Verifier.verify_exn m);
    tc "enter/exit data lower to entry/exit sequences" (fun () ->
        let m =
          Ftn_frontend.Frontend.to_core
            "program p\nreal :: a(4)\ninteger :: i\ndo i = 1, 4\na(i) = 0.0\nend do\n!$omp target enter data map(to:a)\n!$omp target exit data map(from:a)\nend program"
        in
        let m = Lower_omp_data.run m in
        check Alcotest.int "acquire" 1 (count "device.data_acquire" m);
        check Alcotest.int "release" 1 (count "device.data_release" m);
        check Alcotest.int "none left" 0
          (count "omp.target_enter_data" m + count "omp.target_exit_data" m));
    tc "hbm banks assigned round-robin and stably" (fun () ->
        let m =
          Lower_omp_data.run
            ~options:{ Lower_omp_data.memory_space = 1; hbm_banks = 4 }
            (saxpy_core ())
        in
        let allocs = Op.collect Device.is_alloc m in
        let spaces =
          List.map (fun o -> (Option.get (Device.op_name_attr o),
                              Device.op_memory_space o)) allocs
          |> List.sort_uniq compare
        in
        (* three mapped names land in three distinct banks *)
        check Alcotest.int "three allocs" 3 (List.length spaces);
        let banks = List.map snd spaces |> List.sort_uniq compare in
        check Alcotest.int "distinct banks" 3 (List.length banks);
        (* acquire/release agree with the alloc's space per name *)
        Op.walk
          (fun o ->
            if Device.is_data_acquire o || Device.is_data_release o then
              let name = Option.get (Device.op_name_attr o) in
              check Alcotest.int (name ^ " space")
                (List.assoc name spaces)
                (Device.op_memory_space o))
          m;
        Verifier.verify_exn m);
    tc "target update transfers unconditionally" (fun () ->
        let m =
          Ftn_frontend.Frontend.to_core
            "program p\nreal :: a(4)\ninteger :: i\n!$omp target data map(from:a)\n!$omp target\ndo i = 1, 4\na(i) = 1.0\nend do\n!$omp end target\n!$omp target update from(a)\n!$omp end target data\nend program"
        in
        let m = Lower_omp_data.run m in
        check Alcotest.int "update gone" 0 (count "omp.target_update" m);
        check Alcotest.bool "lookup for update" true (count "device.lookup" m >= 1));
  ]

(* --- lower_omp_target + split --- *)

let full_mid_end src =
  Pipeline.run_mid_end (Ftn_frontend.Frontend.to_core src)

let omp_target_tests =
  [
    tc "target becomes kernel create/launch/wait" (fun () ->
        let m = Lower_omp_target.run (Lower_omp_data.run (saxpy_core ())) in
        check Alcotest.int "create" 1 (count "device.kernel_create" m);
        check Alcotest.int "launch" 1 (count "device.kernel_launch" m);
        check Alcotest.int "wait" 1 (count "device.kernel_wait" m);
        check Alcotest.int "no target" 0 (count "omp.target" m));
    tc "kernel region is outlined into fpga module" (fun () ->
        let m = Lower_omp_target.run (Lower_omp_data.run (saxpy_core ())) in
        let device_mods =
          Op.collect (fun o -> Builtin.is_device_module o) m
        in
        check Alcotest.int "one device module" 1 (List.length device_mods);
        let d = List.hd device_mods in
        check Alcotest.int "one kernel fn" 1 (count "func.func" d);
        (* kernel_create regions must now be empty *)
        let kc = List.hd (Op.collect Device.is_kernel_create m) in
        check Alcotest.int "empty region" 0
          (List.length (Op.region_body kc 0)));
    tc "device_function symbol links create to kernel" (fun () ->
        let r = full_mid_end
            "program p\nreal :: y(4)\ninteger :: i\n!$omp target parallel do\ndo i = 1, 4\ny(i) = 1.0\nend do\n!$omp end target parallel do\nend program"
        in
        let kc =
          List.hd (Op.collect Device.is_kernel_create r.Pipeline.host)
        in
        let fname = Option.get (Device.kernel_function kc) in
        match r.Pipeline.device_core with
        | Some d -> check Alcotest.bool "found" true (Op.find_function d fname <> None)
        | None -> Alcotest.fail "no device module");
    tc "outlined kernel is self-contained" (fun () ->
        let r = full_mid_end
            "program p\nreal :: y(4)\ninteger :: i\n!$omp target parallel do\ndo i = 1, 4\ny(i) = 1.0\nend do\n!$omp end target parallel do\nend program"
        in
        match r.Pipeline.device_core with
        | Some d -> Verifier.verify_exn d
        | None -> Alcotest.fail "no device module");
    tc "split separates host and device" (fun () ->
        let m = Lower_omp_target.run (Lower_omp_data.run (saxpy_core ())) in
        let split = Split_modules.run m in
        check Alcotest.bool "device exists" true (split.Split_modules.device <> None);
        check Alcotest.int "host keeps no device module" 0
          (List.length
             (List.filter Builtin.is_device_module
                (Op.module_body split.Split_modules.host))));
    tc "program without offload has no device module" (fun () ->
        let m =
          Ftn_frontend.Frontend.to_core "program p\nreal :: x\nx = 1.0\nend program"
        in
        let r = Pipeline.run_mid_end m in
        check Alcotest.bool "none" true (r.Pipeline.device_core = None));
    tc "two targets produce two kernels" (fun () ->
        let r = full_mid_end
            "program p\nreal :: y(4)\ninteger :: i\n!$omp target parallel do\ndo i = 1, 4\ny(i) = 1.0\nend do\n!$omp end target parallel do\n!$omp target parallel do\ndo i = 1, 4\ny(i) = y(i) + 1.0\nend do\n!$omp end target parallel do\nend program"
        in
        match r.Pipeline.device_core with
        | Some d -> check Alcotest.int "two kernels" 2 (count "func.func" d)
        | None -> Alcotest.fail "no device module");
  ]

(* --- lower_omp_to_hls --- *)

let device_hls_of src =
  match (full_mid_end src).Pipeline.device_hls with
  | Some d -> d
  | None -> Alcotest.fail "no device module"

let saxpy_src =
  "program p\nreal :: x(8), y(8)\nreal :: a\ninteger :: i\na = 2.0\n!$omp target parallel do simd simdlen(4) map(to:x) map(tofrom:y)\ndo i = 1, 8\ny(i) = y(i) + a * x(i)\nend do\n!$omp end target parallel do simd\nend program"

let hls_tests =
  [
    tc "interfaces per argument with separate bundles" (fun () ->
        let d = device_hls_of saxpy_src in
        let ifaces = Op.collect Hls.is_interface d in
        let bundles = List.filter_map Hls.interface_bundle ifaces in
        check Alcotest.bool "gmem0" true (List.mem "gmem0" bundles);
        check Alcotest.bool "gmem1" true (List.mem "gmem1" bundles);
        check Alcotest.bool "control for scalar" true (List.mem "control" bundles));
    tc "parallel_do becomes pipelined scf.for" (fun () ->
        let d = device_hls_of saxpy_src in
        check Alcotest.int "no parallel_do" 0 (count "omp.parallel_do" d);
        check Alcotest.bool "scf.for" true (count "scf.for" d >= 1);
        check Alcotest.int "pipeline" 1 (count "hls.pipeline" d));
    tc "simd clause adds unroll" (fun () ->
        let d = device_hls_of saxpy_src in
        check Alcotest.int "unroll" 1 (count "hls.unroll" d);
        Verifier.verify_exn d);
    tc "non-simd loop has no unroll" (fun () ->
        let d =
          device_hls_of
            "program p\nreal :: y(4)\ninteger :: i\n!$omp target parallel do\ndo i = 1, 4\ny(i) = 1.0\nend do\n!$omp end target parallel do\nend program"
        in
        check Alcotest.int "no unroll" 0 (count "hls.unroll" d));
    tc "collapse(2) produces a nest" (fun () ->
        let d =
          device_hls_of
            "program p\nreal :: a(4, 4)\ninteger :: i, j\n!$omp target parallel do collapse(2)\ndo i = 1, 4\ndo j = 1, 4\na(i, j) = 1.0\nend do\nend do\n!$omp end target parallel do\nend program"
        in
        check Alcotest.int "two fors" 2 (count "scf.for" d);
        Verifier.verify_exn d);
    tc "reduction creates partitioned copies" (fun () ->
        let d =
          device_hls_of
            "program p\nreal :: x(8)\nreal :: s\ninteger :: i\ns = 0.0\n!$omp target parallel do reduction(+:s)\ndo i = 1, 8\ns = s + x(i)\nend do\n!$omp end target parallel do\nend program"
        in
        check Alcotest.int "partition directive" 1 (count "hls.array_partition" d);
        (* copies array allocated with the f32 copy count *)
        let allocas = Op.collect (fun o -> Op.name o = "memref.alloca") d in
        let has_copies =
          List.exists
            (fun o ->
              match Value.ty (Op.result1 o) with
              | Types.Memref { shape = [ Types.Static n ]; _ } ->
                n = Lower_omp_to_hls.default_options.Lower_omp_to_hls.copies_f32
              | _ -> false)
            allocas
        in
        check Alcotest.bool "copy buffer" true has_copies;
        Verifier.verify_exn d);
    tc "reduction rewrites accumulator accesses round robin" (fun () ->
        let d =
          device_hls_of
            "program p\nreal :: x(8)\nreal :: s\ninteger :: i\ns = 0.0\n!$omp target parallel do reduction(+:s)\ndo i = 1, 8\ns = s + x(i)\nend do\n!$omp end target parallel do\nend program"
        in
        (* inside the loop body a remsi computes iv mod n *)
        let fors = Op.collect Scf.is_for d in
        let body_has_rem =
          List.exists (fun f -> Op.exists (fun o -> Op.name o = "arith.remsi") f) fors
        in
        check Alcotest.bool "mod indexing" true body_has_rem);
    tc "pipeline II comes from options" (fun () ->
        let m = Ftn_frontend.Frontend.to_core saxpy_src in
        let r =
          Pipeline.run_mid_end
            ~options:
              {
                Pipeline.default_options with
                Pipeline.hls =
                  { Lower_omp_to_hls.default_options with Lower_omp_to_hls.pipeline_ii = 2 };
              }
            m
        in
        match r.Pipeline.device_hls with
        | Some d ->
          let pipeline_op = List.hd (Op.collect Hls.is_pipeline d) in
          (* the II operand is a constant 2 *)
          let ii_op = Op.operand pipeline_op 0 in
          let consts = Op.collect Arith.is_constant d in
          let def =
            List.find (fun c -> Value.equal (Op.result1 c) ii_op) consts
          in
          check (Alcotest.option Alcotest.int) "ii" (Some 2) (Arith.constant_int def)
        | None -> Alcotest.fail "no device");
  ]

(* --- hls_to_func + core_to_llvm --- *)

let llvm_tests =
  [
    tc "hls ops become intrinsic calls with declarations" (fun () ->
        let d = device_hls_of saxpy_src in
        let f = Hls_to_func.run d in
        check Alcotest.int "no hls left" 0
          (Op.count (fun o -> Op.dialect o = "hls") f);
        let calls = Op.collect (fun o -> Op.name o = "func.call") f in
        let callees = List.filter_map (fun o -> Op.symbol_attr o "callee") calls in
        check Alcotest.bool "pipeline intrinsic" true
          (List.mem Hls_to_func.spec_pipeline callees);
        check Alcotest.bool "interface intrinsic" true
          (List.mem Hls_to_func.spec_interface callees);
        (* declarations hoisted *)
        check Alcotest.bool "decl present" true
          (Op.find_function f Hls_to_func.spec_pipeline <> None));
    tc "interface bundle survives as call attribute" (fun () ->
        let d = device_hls_of saxpy_src in
        let f = Hls_to_func.run d in
        let calls = Op.collect (fun o -> Op.name o = "func.call") f in
        check Alcotest.bool "bundle kept" true
          (List.exists (fun o -> Op.string_attr o "bundle" = Some "gmem0") calls));
    tc "llvm conversion produces CFG" (fun () ->
        let d = Hls_to_func.run (device_hls_of saxpy_src) in
        let l = Core_to_llvm.run d in
        check Alcotest.int "no scf" 0 (Op.count (fun o -> Op.dialect o = "scf") l);
        check Alcotest.int "no memref" 0
          (Op.count (fun o -> Op.dialect o = "memref") l);
        check Alcotest.bool "cond_br" true (count "llvm.cond_br" l >= 1);
        check Alcotest.bool "gep" true (count "llvm.getelementptr" l >= 1);
        Verifier.verify_exn l);
    tc "llvm function signature uses pointers" (fun () ->
        let d = Hls_to_func.run (device_hls_of saxpy_src) in
        let l = Core_to_llvm.run d in
        let fn =
          List.find (fun o -> Op.name o = "llvm.func" && Op.regions o <> [])
            (Op.module_body l)
        in
        match Op.find_attr fn "function_type" with
        | Some (Attr.Type (Types.Func (args, _))) ->
          check Alcotest.bool "all pointers" true
            (List.for_all (function Types.Ptr _ -> true | _ -> false) args)
        | _ -> Alcotest.fail "function_type");
    tc "multi-dim static memrefs linearise" (fun () ->
        let d =
          device_hls_of
            "program p\nreal :: a(4, 4)\ninteger :: i, j\n!$omp target parallel do collapse(2)\ndo i = 1, 4\ndo j = 1, 4\na(i, j) = 1.0\nend do\nend do\n!$omp end target parallel do\nend program"
        in
        let l = Core_to_llvm.run (Hls_to_func.run d) in
        check Alcotest.bool "mul for linearisation" true (count "llvm.mul" l >= 1));
  ]

(* --- mid-end --- *)

let mid_end_tests =
  [
    tc "many_kernels k=12 runs on the device as on the CPU" (fun () ->
        let src = Ftn_linpack.Fortran_sources.many_kernels ~kernels:12 ~n:128 in
        check Alcotest.string "cpu output"
          (Core.Run.output (Core.Run.run src))
          (fst (Core.Run.run_cpu src)));
  ]

let () =
  Registry.register_all ();
  Alcotest.run "passes"
    [
      ("canonicalize", canonicalize_tests);
      ("driver-alloc", driver_alloc_tests);
      ("lower-omp-data", omp_data_tests);
      ("lower-omp-target", omp_target_tests);
      ("lower-omp-to-hls", hls_tests);
      ("llvm", llvm_tests);
      ("mid-end", mid_end_tests);
    ]
