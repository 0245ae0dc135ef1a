(* Tests for the IR core: types, attributes, values, ops, builder,
   printer/parser round-trips, verifier, rewrite driver and pass manager. *)

open Ftn_ir

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let ty_str = Alcotest.testable (Fmt.of_to_string Types.to_string) Types.equal

(* --- types --- *)

let types_tests =
  [
    tc "scalar printing" (fun () ->
        check Alcotest.string "i32" "i32" (Types.to_string Types.I32);
        check Alcotest.string "f64" "f64" (Types.to_string Types.F64);
        check Alcotest.string "index" "index" (Types.to_string Types.Index));
    tc "memref printing" (fun () ->
        check Alcotest.string "static"
          "memref<100xf64, 1 : i32>"
          (Types.to_string
             (Types.memref_static ~memory_space:1 [ 100 ] Types.F64));
        check Alcotest.string "default space" "memref<4x5xf32>"
          (Types.to_string (Types.memref_static [ 4; 5 ] Types.F32));
        check Alcotest.string "dynamic" "memref<?xf32>"
          (Types.to_string (Types.memref_dynamic 1 Types.F32));
        check Alcotest.string "rank-0" "memref<f32>"
          (Types.to_string (Types.memref [] Types.F32)));
    tc "dialect type printing" (fun () ->
        check Alcotest.string "handle" "!device.kernelhandle"
          (Types.to_string Types.Kernel_handle);
        check Alcotest.string "proto" "!hls.axi_protocol"
          (Types.to_string Types.Axi_protocol);
        check Alcotest.string "stream" "!hls.stream<f32>"
          (Types.to_string (Types.Stream Types.F32));
        check Alcotest.string "ptr" "!llvm.ptr<f32>"
          (Types.to_string (Types.Ptr Types.F32)));
    tc "equality" (fun () ->
        check Alcotest.bool "same memref" true
          (Types.equal
             (Types.memref_static [ 3 ] Types.F32)
             (Types.memref_static [ 3 ] Types.F32));
        check Alcotest.bool "different space" false
          (Types.equal
             (Types.memref_static ~memory_space:1 [ 3 ] Types.F32)
             (Types.memref_static [ 3 ] Types.F32));
        check Alcotest.bool "scalar vs memref" false
          (Types.equal Types.F32 (Types.memref [] Types.F32)));
    tc "bitwidth and byte size" (fun () ->
        check Alcotest.int "i1" 1 (Types.bitwidth Types.I1);
        check Alcotest.int "f32" 32 (Types.bitwidth Types.F32);
        check Alcotest.int "f64 bytes" 8 (Types.byte_size Types.F64);
        check Alcotest.int "i1 bytes" 1 (Types.byte_size Types.I1);
        Alcotest.check_raises "memref has no bitwidth"
          (Invalid_argument "Types.bitwidth: not a scalar type") (fun () ->
            ignore (Types.bitwidth (Types.memref [] Types.F32))));
    tc "memref element count" (fun () ->
        check Alcotest.int "2x3" 6
          (Types.memref_num_elements
             { Types.shape = [ Types.Static 2; Types.Static 3 ];
               elt = Types.F32; memory_space = 0 });
        check Alcotest.int "rank-0" 1
          (Types.memref_num_elements
             { Types.shape = []; elt = Types.F32; memory_space = 0 }));
    tc "classification" (fun () ->
        check Alcotest.bool "index is integer" true (Types.is_integer Types.Index);
        check Alcotest.bool "f32 is float" true (Types.is_float Types.F32);
        check Alcotest.bool "f32 not integer" false (Types.is_integer Types.F32);
        check Alcotest.bool "memref" true
          (Types.is_memref (Types.memref [] Types.F32)));
    tc "type parse round-trip" (fun () ->
        let cases =
          [ "i1"; "i32"; "index"; "f32"; "f64"; "memref<100xf32>";
            "memref<?x3xf64, 2 : i32>"; "memref<f32>"; "vector<4xf32>";
            "!device.kernelhandle"; "!hls.axi_protocol"; "!hls.stream<f64>";
            "!llvm.ptr<i64>"; "tuple<i32, f32>" ]
        in
        List.iter
          (fun s ->
            let ty = Ir_parser.parse_type_string s in
            check ty_str s ty (Ir_parser.parse_type_string (Types.to_string ty)))
          cases);
  ]

(* --- attributes --- *)

let attr_tests =
  [
    tc "printing" (fun () ->
        check Alcotest.string "int" "42 : i32" (Attr.to_string (Attr.i32 42));
        check Alcotest.string "string" "\"gmem0\""
          (Attr.to_string (Attr.String "gmem0"));
        check Alcotest.string "symbol" "@my_kernel"
          (Attr.to_string (Attr.Symbol "my_kernel"));
        check Alcotest.string "bool" "true" (Attr.to_string (Attr.Bool true));
        check Alcotest.string "array" "[1 : i64, 2 : i64]"
          (Attr.to_string (Attr.Array [ Attr.i64 1; Attr.i64 2 ])));
    tc "string escaping" (fun () ->
        check Alcotest.string "quotes" "\"a\\\"b\""
          (Attr.to_string (Attr.String "a\"b")));
    tc "accessors" (fun () ->
        check (Alcotest.option Alcotest.int) "int" (Some 7)
          (Attr.as_int (Attr.i32 7));
        check (Alcotest.option Alcotest.int) "not int" None
          (Attr.as_int (Attr.String "x"));
        check (Alcotest.option Alcotest.string) "sym" (Some "f")
          (Attr.as_symbol (Attr.Symbol "f"));
        check (Alcotest.option Alcotest.bool) "bool" (Some false)
          (Attr.as_bool (Attr.Bool false)));
    tc "equality" (fun () ->
        check Alcotest.bool "int eq" true (Attr.equal (Attr.i32 1) (Attr.i32 1));
        check Alcotest.bool "int ty neq" false
          (Attr.equal (Attr.i32 1) (Attr.i64 1));
        check Alcotest.bool "dict" true
          (Attr.equal
             (Attr.Dict [ ("a", Attr.Bool true) ])
             (Attr.Dict [ ("a", Attr.Bool true) ])));
  ]

(* --- values and ops --- *)

let mk_add b =
  let x = Builder.fresh b Types.I32 in
  let y = Builder.fresh b Types.I32 in
  (x, y, Ftn_dialects.Arith.addi b x y)

let op_tests =
  [
    tc "value identity" (fun () ->
        let b = Builder.create () in
        let v1 = Builder.fresh b Types.I32 in
        let v2 = Builder.fresh b Types.I32 in
        check Alcotest.bool "distinct" false (Value.equal v1 v2);
        check Alcotest.bool "self" true (Value.equal v1 v1);
        check Alcotest.int "sequential ids" (Value.id v1 + 1) (Value.id v2));
    tc "op accessors" (fun () ->
        let b = Builder.create () in
        let x, y, add = mk_add b in
        check Alcotest.string "name" "arith.addi" (Op.name add);
        check Alcotest.int "operands" 2 (List.length (Op.operands add));
        check Alcotest.string "dialect" "arith" (Op.dialect add);
        check Alcotest.bool "first operand" true
          (Value.equal x (Op.operand add 0));
        check Alcotest.bool "second operand" true
          (Value.equal y (Op.operand add 1));
        check Alcotest.bool "result typed" true
          (Types.equal Types.I32 (Value.ty (Op.result1 add))));
    tc "attr manipulation" (fun () ->
        let op = Op.make "test.op" ~attrs:[ ("k", Attr.i32 1) ] in
        check (Alcotest.option Alcotest.int) "get" (Some 1) (Op.int_attr op "k");
        let op = Op.set_attr op "k" (Attr.i32 2) in
        check (Alcotest.option Alcotest.int) "set" (Some 2) (Op.int_attr op "k");
        let op = Op.remove_attr op "k" in
        check Alcotest.bool "removed" false (Op.has_attr op "k"));
    tc "walk and count" (fun () ->
        let b = Builder.create () in
        let _, _, add = mk_add b in
        let m = Op.module_op [ add ] in
        check Alcotest.int "total ops" 2 (Op.count (fun _ -> true) m);
        check Alcotest.int "adds" 1
          (Op.count (fun o -> Op.name o = "arith.addi") m));
    tc "collect preserves order" (fun () ->
        let b = Builder.create () in
        let c1 = Ftn_dialects.Arith.const_i32 b 1 in
        let c2 = Ftn_dialects.Arith.const_i32 b 2 in
        let m = Op.module_op [ c1; c2 ] in
        let found = Op.collect (fun o -> Op.name o = "arith.constant") m in
        check Alcotest.int "two" 2 (List.length found);
        check Alcotest.bool "order" true
          (Value.equal (Op.result1 (List.nth found 0)) (Op.result1 c1)));
    tc "substitute rewrites uses not defs" (fun () ->
        let b = Builder.create () in
        let x, y, add = mk_add b in
        let z = Builder.fresh b Types.I32 in
        let add' =
          Op.substitute (fun v -> if Value.equal v x then Some z else None) add
        in
        check Alcotest.bool "x replaced" true (Value.equal z (Op.operand add' 0));
        check Alcotest.bool "y kept" true (Value.equal y (Op.operand add' 1));
        check Alcotest.bool "result kept" true
          (Value.equal (Op.result1 add) (Op.result1 add')));
    tc "free values of a region" (fun () ->
        let b = Builder.create () in
        let outer = Builder.fresh b Types.Index in
        let inner_op = Op.make "memref.dma_wait" ~attrs:[ ("tag", Attr.i32 0) ] in
        let use = Op.make "test.use" ~operands:[ outer ] in
        let frees = Op.free_values_of_ops [ inner_op; use ] in
        check Alcotest.int "one free" 1 (Value.Set.cardinal frees);
        check Alcotest.bool "it is outer" true (Value.Set.mem outer frees));
    tc "module helpers" (fun () ->
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ Ftn_dialects.Func_d.return () ]
        in
        let m = Op.module_op [ fn ] in
        check Alcotest.bool "is module" true (Op.is_module m);
        check Alcotest.bool "find f" true (Op.find_function m "f" <> None);
        check Alcotest.bool "no g" true (Op.find_function m "g" = None));
    tc "clone remaps internal values" (fun () ->
        let b = Builder.create () in
        let x, _, add = mk_add b in
        let use = Op.make "test.use" ~operands:[ Op.result1 add ] in
        let wrapper = Op.make "test.wrap" ~regions:[ Op.region [ add; use ] ] in
        let cloned, mapping = Builder.clone b wrapper in
        let cloned_add = List.hd (Op.region_body cloned 0) in
        let cloned_use = List.nth (Op.region_body cloned 0) 1 in
        check Alcotest.bool "result remapped" false
          (Value.equal (Op.result1 add) (Op.result1 cloned_add));
        check Alcotest.bool "use follows" true
          (Value.equal (Op.result1 cloned_add) (Op.operand cloned_use 0));
        check Alcotest.bool "free value unmapped" true
          (Value.equal x (Op.operand cloned_add 0));
        check Alcotest.bool "mapping recorded" true
          (Value.Map.mem (Op.result1 add) mapping));
  ]

(* --- printer / parser --- *)

let roundtrip m =
  let text = Printer.to_string m in
  let reparsed = Ir_parser.parse_module text in
  check Alcotest.string "round trip" text (Printer.to_string reparsed)

let parser_tests =
  [
    tc "simple op round-trip" (fun () ->
        let b = Builder.create () in
        let c = Ftn_dialects.Arith.const_f32 b 1.5 in
        roundtrip (Op.module_op [ c ]));
    tc "regions round-trip" (fun () ->
        let b = Builder.create () in
        let lb = Ftn_dialects.Arith.const_index b 0 in
        let ub = Ftn_dialects.Arith.const_index b 10 in
        let loop =
          Ftn_dialects.Scf.for_ b ~lb:(Op.result1 lb) ~ub:(Op.result1 ub)
            ~step:(Op.result1 lb) (fun _iv _ -> [ Ftn_dialects.Scf.yield () ])
        in
        roundtrip (Op.module_op [ lb; ub; loop ]));
    tc "attributes round-trip" (fun () ->
        let op =
          Op.make "test.attrs"
            ~attrs:
              [
                ("i", Attr.i32 (-3));
                ("f", Attr.f32 2.5);
                ("s", Attr.String "hello world");
                ("sym", Attr.Symbol "foo");
                ("b", Attr.Bool true);
                ("arr", Attr.Array [ Attr.i64 1; Attr.String "x" ]);
                ("ty", Attr.Type (Types.memref_static [ 8 ] Types.F64));
              ]
        in
        roundtrip (Op.module_op [ op ]));
    tc "float attr precision survives" (fun () ->
        (* print -> parse -> print is a fixpoint that keeps the value *)
        List.iter
          (fun a ->
            let op = Op.make "test.f" ~attrs:[ ("v", a) ] in
            let text = Printer.to_string (Op.module_op [ op ]) in
            let m = Ir_parser.parse_module text in
            check Alcotest.string "fixpoint" text (Printer.to_string m);
            let reparsed = List.hd (Op.module_body m) in
            match (a, Op.find_attr reparsed "v") with
            | Attr.Float (x, _), Some (Attr.Float (y, _)) ->
              check (Alcotest.float 0.0) "exact" x y
            | _ -> Alcotest.fail "float attr lost")
          [ Attr.f64 (0.1 +. 0.2); Attr.f32 12345678.0 ]);
    tc "parse errors carry position" (fun () ->
        (try
           ignore (Ir_parser.parse_ops "\"unclosed(");
           Alcotest.fail "expected parse error"
         with Ir_parser.Parse_error (_, pos) ->
           check Alcotest.bool "position sane" true (pos >= 0)));
    tc "multi-block CFG regions round-trip" (fun () ->
        let b = Builder.create () in
        let arg = Builder.fresh b Types.I64 in
        let iv = Builder.fresh b Types.I64 in
        let entry =
          Op.block ~label:"entry" ~args:[ arg ]
            [ Ftn_dialects.Llvm_d.br ~dest:"loop" ~operands:[ arg ] () ]
        in
        let cmp = Ftn_dialects.Llvm_d.icmp b "slt" iv arg in
        let loop_blk =
          Op.block ~label:"loop" ~args:[ iv ]
            [ cmp;
              Ftn_dialects.Llvm_d.cond_br ~cond:(Op.result1 cmp)
                ~true_dest:"loop" ~true_operands:[ iv ] ~false_dest:"exit" () ]
        in
        let exit_blk =
          Op.block ~label:"exit" [ Ftn_dialects.Llvm_d.return () ]
        in
        let fn =
          Ftn_dialects.Llvm_d.func ~sym_name:"f"
            ~blocks:[ entry; loop_blk; exit_blk ]
            ~fn_ty:(Types.Func ([ Types.I64 ], []))
            ()
        in
        roundtrip (Op.module_op [ fn ]));
    tc "empty regions round-trip" (fun () ->
        let b = Builder.create () in
        let kc =
          Ftn_dialects.Device.kernel_create b ~args:[] ~device_function:"k" ()
        in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ kc; Ftn_dialects.Func_d.return () ]
        in
        roundtrip (Op.module_op [ fn ]));
    tc "nested modules round-trip" (fun () ->
        let inner = Ftn_dialects.Builtin.device_module [] in
        roundtrip (Op.module_op [ inner ]));
    tc "parses paper Listing 2 style text" (fun () ->
        let text =
          {|"builtin.module"() ({
 ^bb0():
  %1 = "device.alloc"() <{name = "a", memory_space = 1 : i32}> : () -> (memref<100xf64, 1 : i32>)
  "device.data_acquire"() <{name = "a", memory_space = 1 : i32}> : () -> ()
 }) : () -> ()|}
        in
        let m = Ir_parser.parse_module text in
        check Alcotest.int "two ops" 2 (List.length (Op.module_body m)));
  ]

(* --- verifier --- *)

(* Every scoping rule and every Dialect combinator, each case rendered
   with Diag.render_all so message text, order and count are all pinned
   (asserting only "some diagnostic" would let a spurious second one
   through). Each case builds its values from a fresh Builder, so the
   %ids are stable. *)
let pinned_diagnostics () =
  Dialect.register "test.pin_typed" ~verify:(fun op ->
      Dialect.expect_operand_type op 0 Types.I1);
  let const b ty v =
    Op.make "arith.constant" ~results:[ Builder.fresh b ty ]
      ~attrs:[ ("value", v) ]
  in
  let use vs = Op.make "test.use" ~operands:vs in
  let fn ?(args = []) body =
    Ftn_dialects.Func_d.func ~sym_name:"f" ~args ~result_tys:[]
      (body @ [ Ftn_dialects.Func_d.return () ])
  in
  let cases =
    [
      ( "use before def",
        fun b ->
          let later = const b Types.I32 (Attr.i32 1) in
          let loc = Ftn_diag.Loc.make ~file:"t.f90" ~line:3 ~col:5 () in
          Op.module_op
            [ fn [ Op.set_loc (use [ Op.result1 later ]) loc; later ] ] );
      ( "undefined scf.if operand, also used inside its region",
        fun b ->
          let ghost = Builder.fresh b Types.I1 in
          Op.module_op
            [
              fn
                [
                  Ftn_dialects.Scf.if_ b ~cond:ghost
                    ~then_ops:[ use [ ghost ]; Ftn_dialects.Scf.yield () ]
                    ();
                ];
            ] );
      ( "value defined twice",
        fun b ->
          let c = const b Types.I32 (Attr.i32 0) in
          Op.module_op [ fn [ c; { c with Op.attrs = [ ("value", Attr.i32 1) ] } ] ]
      );
      ( "func.func uses an outer value",
        fun b ->
          let outer = const b Types.I32 (Attr.i32 0) in
          Op.module_op [ outer; fn [ use [ Op.result1 outer ] ] ] );
      ( "kernel_create sees its operands, not other outer values",
        fun b ->
          let a = const b Types.I32 (Attr.i32 1) in
          let other = const b Types.I32 (Attr.i32 2) in
          let kernel body =
            Ftn_dialects.Device.kernel_create b ~args:[ Op.result1 a ] ~body ()
          in
          Op.module_op
            [
              fn
                [
                  a;
                  other;
                  kernel [ use [ Op.result1 a ] ];
                  kernel [ use [ Op.result1 other ] ];
                ];
            ] );
      ( "then-region value used in the else region",
        fun b ->
          let c = const b Types.I1 (Attr.Int (1, Types.I1)) in
          let x = const b Types.I32 (Attr.i32 7) in
          Op.module_op
            [
              fn
                [
                  c;
                  Ftn_dialects.Scf.if_ b ~cond:(Op.result1 c)
                    ~then_ops:[ x; Ftn_dialects.Scf.yield () ]
                    ~else_ops:[ use [ Op.result1 x ]; Ftn_dialects.Scf.yield () ]
                    ();
                ];
            ] );
      ( "region value used after its op",
        fun b ->
          let x = const b Types.I32 (Attr.i32 7) in
          Op.module_op
            [
              fn
                [
                  Op.make "test.region"
                    ~regions:[ Op.region [ x ] ];
                  use [ Op.result1 x ];
                ];
            ] );
      ( "accepted: defs accumulate across blocks, own results in scope",
        fun b ->
          let x = const b Types.I32 (Attr.i32 7) in
          let own = Builder.fresh b Types.I32 in
          Op.module_op
            [
              fn
                [
                  Op.make "test.region" ~results:[ own ]
                    ~regions:
                      [
                        [
                          Op.block ~label:"bb0" [ x ];
                          Op.block ~label:"bb1" [ use [ Op.result1 x; own ] ];
                        ];
                      ];
                ];
            ] );
      ( "one failing op per combinator",
        fun b ->
          let i32 = Builder.fresh b Types.I32 and i64 = Builder.fresh b Types.I64 in
          Op.module_op
            [
              fn ~args:[ i32; i64 ]
                [
                  Op.make "memref.dealloc";
                  Op.make "arith.negf" ~operands:[ i32 ];
                  Op.make "device.kernel_create"
                    ~results:[ Builder.fresh b Types.Kernel_handle ];
                  Op.make "arith.constant" ~results:[ Builder.fresh b Types.I32 ];
                  Op.make "arith.select" ~operands:[ i32; i32; i32 ]
                    ~results:[ Builder.fresh b Types.I32 ];
                  Op.make "test.pin_typed";
                  Op.make "arith.addi" ~operands:[ i32; i64 ]
                    ~results:[ Builder.fresh b Types.I32 ];
                ];
            ] );
    ]
  in
  String.concat ""
    (List.map
       (fun (label, build) ->
         Fmt.str "== %s ==\n%s" label
           (Ftn_diag.Diag.render_all
              (Verifier.verify (build (Builder.create ())))))
       cases)

let pinned_expected =
  {|== use before def ==
t.f90:3:5: error: 'test.use': use of undefined value %0
== undefined scf.if operand, also used inside its region ==
error: 'scf.if': use of undefined value %0
== value defined twice ==
error: 'arith.constant': value %0 defined twice
== func.func uses an outer value ==
error: 'test.use': use of undefined value %0
== kernel_create sees its operands, not other outer values ==
error: 'test.use': use of undefined value %1
== then-region value used in the else region ==
error: 'test.use': use of undefined value %1
== region value used after its op ==
error: 'test.use': use of undefined value %0
== accepted: defs accumulate across blocks, own results in scope ==
== one failing op per combinator ==
error: 'memref.dealloc': memref.dealloc expects 1 operands, got 0
error: 'arith.negf': arith.negf expects 1 results, got 0
error: 'device.kernel_create': device.kernel_create expects 1 regions, got 0
error: 'arith.constant': arith.constant missing attribute "value"
error: 'arith.select': arith.select operand 0: expected i1, got i32
error: 'test.pin_typed': test.pin_typed has no operand 0
error: 'arith.addi': arith.addi operands must all have the same type
|}

let verifier_tests =
  [
    tc "valid module passes" (fun () ->
        let b = Builder.create () in
        let _, _, add = mk_add b in
        (* operands are free at module level: wrap in a func *)
        let x = Op.operand add 0 and y = Op.operand add 1 in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[ x; y ] ~result_tys:[]
            [ add; Ftn_dialects.Func_d.return () ]
        in
        check Alcotest.int "no diags" 0
          (List.length (Verifier.verify (Op.module_op [ fn ]))));
    tc "use before def is reported" (fun () ->
        let b = Builder.create () in
        let ghost = Builder.fresh b Types.I32 in
        let use = Op.make "test.use" ~operands:[ ghost ] in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ use; Ftn_dialects.Func_d.return () ]
        in
        check Alcotest.bool "diag found" true
          (Verifier.verify (Op.module_op [ fn ]) <> []));
    tc "double definition is reported" (fun () ->
        let b = Builder.create () in
        let v = Builder.fresh b Types.I32 in
        let c1 = Op.make "arith.constant" ~results:[ v ] ~attrs:[ ("value", Attr.i32 0) ] in
        let c2 = Op.make "arith.constant" ~results:[ v ] ~attrs:[ ("value", Attr.i32 1) ] in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ c1; c2; Ftn_dialects.Func_d.return () ]
        in
        check Alcotest.bool "diag found" true
          (Verifier.verify (Op.module_op [ fn ]) <> []));
    tc "registered op checks fire" (fun () ->
        Ftn_dialects.Registry.register_all ();
        let bad = Op.make "arith.constant" in
        (* no results, no value attr *)
        check Alcotest.bool "diag found" true
          (Verifier.verify (Op.module_op [ bad ]) <> []));
    tc "isolated regions reject outer values" (fun () ->
        let b = Builder.create () in
        let outer = Builder.fresh b Types.I32 in
        let c =
          Op.make "arith.constant" ~results:[ outer ]
            ~attrs:[ ("value", Attr.i32 0) ]
        in
        let use = Op.make "test.use" ~operands:[ outer ] in
        let inner_fn =
          Ftn_dialects.Func_d.func ~sym_name:"g" ~args:[] ~result_tys:[]
            [ use; Ftn_dialects.Func_d.return () ]
        in
        let outer_fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ c; Ftn_dialects.Func_d.return () ]
        in
        check Alcotest.bool "diag found" true
          (Verifier.verify (Op.module_op [ outer_fn; inner_fn ]) <> []));
    tc "strict mode flags unregistered ops" (fun () ->
        let op = Op.make "nonexistent.op" in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ op; Ftn_dialects.Func_d.return () ]
        in
        let m = Op.module_op [ fn ] in
        check Alcotest.bool "lenient ok" true (Verifier.is_valid m);
        check Alcotest.bool "strict flags" false (Verifier.is_valid ~strict:true m));
    tc "diagnostics are pinned verbatim" (fun () ->
        check Alcotest.string "rendered diagnostics" pinned_expected
          (pinned_diagnostics ()));
  ]

(* --- rewrite driver --- *)

let rewrite_tests =
  [
    tc "pattern replaces op and redirects uses" (fun () ->
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let dbl = Op.make "test.double" ~operands:[ x ]
            ~results:[ Builder.fresh b Types.I32 ] in
        let use = Op.make "test.use" ~operands:[ Op.result1 dbl ] in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[ x ] ~result_tys:[]
            [ dbl; use; Ftn_dialects.Func_d.return () ]
        in
        let pat =
          Rewrite.pattern ~roots:[ "test.double" ] "double-to-add"
            (fun ctx op ->
              let a = Op.operand op 0 in
              let add = Ftn_dialects.Arith.addi (Rewrite.builder ctx) a a in
              Some
                (Rewrite.replace_with
                   ~replacements:[ (Op.result1 op, Op.result1 add) ]
                   [ add ]))
        in
        let m = Rewrite.apply [ pat ] (Op.module_op [ fn ]) in
        check Alcotest.int "no doubles left" 0
          (Op.count (fun o -> Op.name o = "test.double") m);
        check Alcotest.int "one add" 1
          (Op.count (fun o -> Op.name o = "arith.addi") m);
        (* the use now points at the add's result *)
        let add = List.hd (Op.collect (fun o -> Op.name o = "arith.addi") m) in
        let use = List.hd (Op.collect (fun o -> Op.name o = "test.use") m) in
        check Alcotest.bool "use redirected" true
          (Value.equal (Op.result1 add) (Op.operand use 0)));
    tc "erase drops dead ops" (fun () ->
        let marker = Op.make "test.dead" in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ marker; Ftn_dialects.Func_d.return () ]
        in
        let pat =
          Rewrite.pattern "drop" (fun _ op ->
              if Op.name op = "test.dead" then Some Rewrite.erase else None)
        in
        let m = Rewrite.apply [ pat ] (Op.module_op [ fn ]) in
        check Alcotest.int "gone" 0
          (Op.count (fun o -> Op.name o = "test.dead") m));
    tc "fixpoint terminates on cyclic-looking rewrites" (fun () ->
        let count = ref 0 in
        let pat =
          Rewrite.pattern ~roots:[ "test.spin" ] "spin" (fun _ _ ->
              if !count < 1000 then begin
                incr count;
                Some (Rewrite.replace_with [ Op.make "test.spin" ])
              end
              else None)
        in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ Op.make "test.spin"; Ftn_dialects.Func_d.return () ]
        in
        let m =
          Rewrite.apply
            ~config:{ Rewrite.default_config with max_iterations = 5 }
            [ pat ] (Op.module_op [ fn ])
        in
        (* the visit budget is max_iterations * (op count + 16): the
           driver must stop well short of the pattern's own 1000-firing
           fuse *)
        check Alcotest.bool "bounded" true (!count <= 200);
        ignore m);
    tc "substitution cycle raises a located diagnostic" (fun () ->
        (* two patterns that replace each other's results: a -> b, b -> a *)
        let b = Builder.create () in
        let x = Builder.fresh b Types.I32 in
        let a_op = Op.make "test.a" ~operands:[ x ]
            ~results:[ Builder.fresh b Types.I32 ] in
        let b_op = Op.make "test.b" ~operands:[ Op.result1 a_op ]
            ~results:[ Builder.fresh b Types.I32 ] in
        let use = Op.make "test.use" ~operands:[ Op.result1 b_op ] in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[ x ] ~result_tys:[]
            [ a_op; b_op; use; Ftn_dialects.Func_d.return () ]
        in
        let swap root other =
          Rewrite.pattern ~roots:[ root ] (root ^ "-to-" ^ other)
            (fun _ op ->
              Some
                (Rewrite.replace_with
                   ~replacements:
                     [ (Op.result1 op, Op.result1 (if root = "test.a" then b_op else a_op)) ]
                   [ { op with Op.name = other } ]))
        in
        match
          Rewrite.apply
            [ swap "test.a" "test.b'"; swap "test.b" "test.a'" ]
            (Op.module_op [ fn ])
        with
        | _ -> Alcotest.fail "expected a substitution-cycle diagnostic"
        | exception Ftn_diag.Diag.Diag_failure (d :: _) ->
          let msg = d.Ftn_diag.Diag.message in
          let contains sub =
            let n = String.length sub and m = String.length msg in
            let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
            go 0
          in
          check Alcotest.bool "mentions the cycle" true
            (contains "substitution cycle"));
    tc "fold hook folds constants and erases dead ops" (fun () ->
        let b = Builder.create () in
        let two = Ftn_dialects.Arith.const_i32 b 2 in
        let three = Ftn_dialects.Arith.const_i32 b 3 in
        let sum =
          Ftn_dialects.Arith.addi b (Op.result1 two) (Op.result1 three)
        in
        let use = Op.make "test.use" ~operands:[ Op.result1 sum ] in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [ two; three; sum; use; Ftn_dialects.Func_d.return () ]
        in
        let fold ctx op =
          if Op.name op = "arith.addi" then
            match
              ( Rewrite.const_of ctx (Op.operand op 0),
                Rewrite.const_of ctx (Op.operand op 1) )
            with
            | Some (Attr.Int (x, ty)), Some (Attr.Int (y, _)) ->
              Some [ Rewrite.To_constant (Attr.Int (x + y, ty)) ]
            | _ -> None
          else None
        in
        let config = { Rewrite.default_config with Rewrite.fold = Some fold } in
        let m, stats =
          Rewrite.apply_with_stats ~config [] (Op.module_op [ fn ])
        in
        check Alcotest.int "no add left" 0
          (Op.count (fun o -> Op.name o = "arith.addi") m);
        (* the sum op folded to a constant reusing its result value, and
           the now-dead 2 and 3 constants were erased by the driver *)
        check Alcotest.int "one constant left" 1
          (Op.count (fun o -> Op.name o = "arith.constant") m);
        let konst =
          List.hd (Op.collect (fun o -> Op.name o = "arith.constant") m)
        in
        check Alcotest.bool "use kept its value" true
          (Value.equal (Op.result1 konst) (Op.result1 sum));
        check Alcotest.bool "folded" true (stats.Rewrite.ops_folded >= 1);
        check Alcotest.bool "erased" true (stats.Rewrite.ops_erased >= 2));
    tc "root-indexed patterns only visit matching ops" (fun () ->
        let fired_on = ref [] in
        let pat =
          Rewrite.pattern ~roots:[ "test.only" ] "rooted" (fun _ op ->
              fired_on := Op.name op :: !fired_on;
              None)
        in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [
              Op.make "test.only"; Op.make "test.other";
              Ftn_dialects.Func_d.return ();
            ]
        in
        ignore (Rewrite.apply [ pat ] (Op.module_op [ fn ]));
        check (Alcotest.list Alcotest.string) "only the rooted op"
          [ "test.only" ] !fired_on);
    tc "in-queue flag coalesces re-enqueues on a diamond def/use graph"
      (fun () ->
        (* a (generalised) diamond: one source value fanning out to M
           mid ops whose results all join in a single user. Renaming
           each mid op re-enqueues the join; without the in-queue flag
           the join would be pushed once per mid and visited up to M
           extra times. With coalescing the total visit count is
           exactly: initial ops (func + src + M mids + join + return =
           M+4) plus the M renamed replacement ops plus one revisit of
           the source (each kill re-enqueues the producer for the
           dead-code check; those M re-enqueues coalesce too) — the
           join's M re-enqueues collapse into its single queued entry. *)
        let m_mids = 8 in
        let b = Builder.create () in
        let src = Builder.op1 b "test.src" Types.I32 in
        let mids =
          List.init m_mids (fun _ ->
              Builder.op1 b "test.mid" ~operands:[ Op.result1 src ]
                Types.I32)
        in
        let join =
          Op.make "test.join" ~operands:(List.map Op.result1 mids)
        in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            ((src :: mids) @ [ join; Ftn_dialects.Func_d.return () ])
        in
        let rename =
          Rewrite.pattern ~roots:[ "test.mid" ] "mid->done" (fun _ op ->
              Some (Rewrite.replace_with [ { op with Op.name = "test.done" } ]))
        in
        let _, stats =
          Rewrite.apply_with_stats [ rename ]
            (Op.module_op [ fn ])
        in
        check Alcotest.int "patterns fired once per mid" m_mids
          stats.Rewrite.patterns_fired;
        check Alcotest.int "visits coalesced"
          ((2 * m_mids) + 5)
          stats.Rewrite.ops_visited);
    tc "pattern profile counts every attempt" (fun () ->
        let saved = Ftn_obs.Profile.enabled () in
        Ftn_obs.Profile.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Ftn_obs.Profile.set_enabled saved)
          (fun () ->
            Rewrite.reset_pattern_profile ();
            let iters = 200 in
            (* each apply attempts the rooted pattern exactly once (one
               test.hammer op per module, never fires) *)
            let pat =
              Rewrite.pattern ~roots:[ "test.hammer" ] "hammered"
                (fun _ _ -> None)
            in
            for _ = 1 to iters do
              let fn =
                Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[]
                  ~result_tys:[]
                  [ Op.make "test.hammer"; Ftn_dialects.Func_d.return () ]
              in
              ignore (Rewrite.apply [ pat ] (Op.module_op [ fn ]))
            done;
            match
              List.find_opt
                (fun (name, _, _, _) -> String.equal name "hammered")
                (Rewrite.pattern_profile ())
            with
            | Some (_, attempts, fired, _) ->
              check Alcotest.int "attempts" iters attempts;
              check Alcotest.int "fired" 0 fired
            | None -> Alcotest.fail "pattern missing from the profile"));
    tc "rename chain reaches a fixpoint" (fun () ->
        (* a -> b -> c rename chain with no fresh values: re-applying the
           patterns to the result fires, folds and erases nothing, and
           the printed IR matches byte for byte *)
        let rename from into =
          Rewrite.pattern ~roots:[ from ] (from ^ "->" ^ into) (fun _ op ->
              Some (Rewrite.replace_with [ { op with Op.name = into } ]))
        in
        let pats = [ rename "test.a" "test.b"; rename "test.b" "test.c" ] in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[] ~result_tys:[]
            [
              Op.make "test.a"; Op.make "test.b";
              Ftn_dialects.Func_d.return ();
            ]
        in
        let once = Rewrite.apply pats (Op.module_op [ fn ]) in
        let twice, stats = Rewrite.apply_with_stats pats once in
        check Alcotest.int "both ops end as test.c" 2
          (Op.count (fun o -> Op.name o = "test.c") once);
        check Alcotest.int "nothing fires" 0 stats.Rewrite.patterns_fired;
        check Alcotest.int "nothing folds" 0 stats.Rewrite.ops_folded;
        check Alcotest.int "nothing is erased" 0 stats.Rewrite.ops_erased;
        check Alcotest.string "same print"
          (Format.asprintf "%a" Printer.pp once)
          (Format.asprintf "%a" Printer.pp twice));
    tc "erasing one op does not rebuild its block" (fun () ->
        (* A func body of [repeats] groups, each with one dead constant
           for the driver to erase. Minor words allocated per op must
           stay flat when the block grows 4x; rebuilding the block on
           every erase makes them grow with it. *)
        let words_per_op repeats =
          let b = Builder.create () in
          let mem = Builder.fresh b (Types.memref_static [ 4 ] Types.I32) in
          let group () =
            let live = Ftn_dialects.Arith.const_i32 b 1 in
            let idx = Ftn_dialects.Arith.const_index b 0 in
            [
              Ftn_dialects.Arith.const_i32 b 0;
              live;
              idx;
              Ftn_dialects.Memref_d.store (Op.result1 live) mem
                [ Op.result1 idx ];
            ]
          in
          let body = List.concat (List.init repeats (fun _ -> group ())) in
          let m =
            Op.module_op
              [
                Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[ mem ]
                  ~result_tys:[]
                  (body @ [ Ftn_dialects.Func_d.return () ]);
              ]
          in
          let before = Gc.minor_words () in
          let out, stats = Rewrite.apply_with_stats [] m in
          let words = Gc.minor_words () -. before in
          check Alcotest.int "dead constants erased" repeats
            stats.Rewrite.ops_erased;
          check Alcotest.int "live constants kept" (2 * repeats)
            (Op.count (fun o -> Op.name o = "arith.constant") out);
          words /. float_of_int (Pass.count_ops m)
        in
        let small = words_per_op 500 in
        let large = words_per_op 2000 in
        check Alcotest.bool
          (Fmt.str "%.0f words/op at 2000 repeats <= 1.5 x %.0f at 500" large
             small)
          true
          (large <= 1.5 *. small));
    tc "erasing a region op kills replacements recorded inside it" (fun () ->
        (* Children are visited first: test.a inside the scf.if becomes
           test.b, then the scf.if is erased. The kill must reach test.b
           through the dead test.a it replaced, so the constant feeding
           test.b loses its last live user and is erased as well. *)
        let b = Builder.create () in
        let cond = Builder.fresh b Types.I1 in
        let c = Ftn_dialects.Arith.const_i32 b 5 in
        let a = Op.make "test.a" ~operands:[ Op.result1 c ] in
        let if_op =
          Ftn_dialects.Scf.if_ b ~cond
            ~then_ops:[ a; Ftn_dialects.Scf.yield () ]
            ()
        in
        let fn =
          Ftn_dialects.Func_d.func ~sym_name:"f" ~args:[ cond ] ~result_tys:[]
            [ c; if_op; Ftn_dialects.Func_d.return () ]
        in
        let a_to_b =
          Rewrite.pattern ~roots:[ "test.a" ] "a->b" (fun _ op ->
              Some (Rewrite.replace_with [ { op with Op.name = "test.b" } ]))
        in
        let drop_if =
          Rewrite.pattern ~roots:[ "scf.if" ] "drop-if" (fun _ _ ->
              Some Rewrite.erase)
        in
        let m, stats =
          Rewrite.apply_with_stats [ a_to_b; drop_if ] (Op.module_op [ fn ])
        in
        check Alcotest.int "both patterns fired" 2 stats.Rewrite.patterns_fired;
        List.iter
          (fun name ->
            check Alcotest.int (name ^ " gone") 0
              (Op.count (fun o -> Op.name o = name) m))
          [ "test.a"; "test.b"; "scf.if"; "arith.constant" ]);
  ]

(* --- pass manager --- *)

let pass_tests =
  [
    tc "pipeline runs passes in order and records stages" (fun () ->
        let order = ref [] in
        let mk name = Pass.make name (fun m -> order := name :: !order; m) in
        let m = Op.module_op [] in
        let _, stages = Pass.run_pipeline [ mk "a"; mk "b" ] m in
        check (Alcotest.list Alcotest.string) "order" [ "b"; "a" ] !order;
        check (Alcotest.list Alcotest.string) "stages"
          [ "input"; "a"; "b" ]
          (List.map (fun s -> s.Pass.stage_name) stages));
    tc "verify_between catches breakage" (fun () ->
        let b = Builder.create () in
        let breaker =
          Pass.make "break" (fun m ->
              let ghost = Builder.fresh b Types.I32 in
              let bad = Op.make "test.use" ~operands:[ ghost ] in
              Op.with_module_body m [ bad ])
        in
        (try
           ignore
             (Pass.run_pipeline ~verify_between:true [ breaker ] (Op.module_op []));
           Alcotest.fail "expected verification failure"
         with Ftn_diag.Diag.Diag_failure (d :: _) ->
           (* the diagnostic names the pass that broke the IR *)
           check Alcotest.bool "pass context" true
             (List.exists
                (fun (_, m) ->
                  let needle = "after pass 'break'" in
                  let nl = String.length needle and hl = String.length m in
                  let rec go i =
                    i + nl <= hl && (String.sub m i nl = needle || go (i + 1))
                  in
                  go 0)
                d.Ftn_diag.Diag.notes)));
    tc "op counting" (fun () ->
        let b = Builder.create () in
        let c = Ftn_dialects.Arith.const_i32 b 1 in
        check Alcotest.int "count" 2 (Pass.count_ops (Op.module_op [ c ])));
  ]

let () =
  Ftn_dialects.Registry.register_all ();
  Alcotest.run "ir"
    [
      ("types", types_tests);
      ("attrs", attr_tests);
      ("ops", op_tests);
      ("printer-parser", parser_tests);
      ("verifier", verifier_tests);
      ("rewrite", rewrite_tests);
      ("pass", pass_tests);
    ]
