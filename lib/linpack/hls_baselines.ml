(* Hand-written HLS baselines: the kernels a Vitis HLS programmer would
   write in C with pragmas, expressed at the hls-dialect level exactly as
   AMD's Clang frontend emits them, plus the hand-written host drivers
   (the OpenCL host program, driving the simulated device through the
   runtime's host API). Synthesised with frontend = Clang_hls so the
   backend's MAC pattern matcher sees Clang-shaped IR (Tables 3 and 4). *)

open Ftn_ir
open Ftn_dialects
open Ftn_interp
open Ftn_hlsim
open Ftn_runtime

(* --- kernel construction helpers --- *)

let m_axi_interface b arg bundle =
  let kind = Arith.const_i32 b (Hls.int_of_protocol Hls.M_axi) in
  let proto = Hls.axi_protocol b (Op.result1 kind) in
  [ kind; proto; Hls.interface ~arg ~protocol:(Op.result1 proto) ~bundle ]

let axilite_interface b arg =
  let kind = Arith.const_i32 b (Hls.int_of_protocol Hls.S_axilite) in
  let proto = Hls.axi_protocol b (Op.result1 kind) in
  [ kind; proto; Hls.interface ~arg ~protocol:(Op.result1 proto) ~bundle:"control" ]

(* void saxpy_hw(float *x, float *y, float a) — pipelined, unrolled x10. *)
let saxpy_device ~n =
  let b = Builder.create () in
  let arr_ty = Types.memref_static ~memory_space:1 [ n ] Types.F32 in
  let scalar_ty = Types.memref ~memory_space:1 [] Types.F32 in
  let x = Builder.fresh b arr_ty in
  let y = Builder.fresh b arr_ty in
  let a = Builder.fresh b scalar_ty in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let emit_get op =
    emit op;
    Op.result1 op
  in
  List.iter emit (m_axi_interface b x "gmem0");
  List.iter emit (m_axi_interface b y "gmem1");
  List.iter emit (axilite_interface b a);
  let zero = emit_get (Arith.const_index b 0) in
  let bound = emit_get (Arith.const_index b n) in
  let one = emit_get (Arith.const_index b 1) in
  let loop =
    Scf.for_ b ~lb:zero ~ub:bound ~step:one (fun i _ ->
        let body = ref [] in
        let put op = body := op :: !body in
        let put_get op =
          put op;
          Op.result1 op
        in
        let ii = put_get (Arith.const_i32 b 1) in
        put (Hls.pipeline ii);
        let factor = put_get (Arith.const_i32 b 10) in
        put (Hls.unroll factor);
        let av = put_get (Memref_d.load b a []) in
        let xi = put_get (Memref_d.load b x [ i ]) in
        let yi = put_get (Memref_d.load b y [ i ]) in
        let prod = put_get (Arith.mulf b ~fastmath:true av xi) in
        let sum = put_get (Arith.addf b ~fastmath:true yi prod) in
        put (Memref_d.store sum y [ i ]);
        put (Scf.yield ());
        List.rev !body)
  in
  emit loop;
  emit (Func_d.return ());
  let fn =
    Func_d.func ~sym_name:"saxpy_hw" ~args:[ x; y; a ] ~result_tys:[]
      (List.rev !ops)
  in
  Builtin.device_module [ fn ]

(* void sgesl_hw(float *b, float *a, float t, int k, int n):
     for (j = k; j < n; j++) b[j] += t * a[j];   // 0-based
   Pipelined, not unrolled: the Clang-shaped MAC is recognised by the
   backend and lands in DSPs. *)
let sgesl_device ~n:_ =
  let b = Builder.create () in
  let arr_ty = Types.memref_dynamic ~memory_space:1 1 Types.F32 in
  let f_ty = Types.memref ~memory_space:1 [] Types.F32 in
  let i_ty = Types.memref ~memory_space:1 [] Types.I32 in
  let bv = Builder.fresh b arr_ty in
  let av = Builder.fresh b arr_ty in
  let tv = Builder.fresh b f_ty in
  let kv = Builder.fresh b i_ty in
  let nv = Builder.fresh b i_ty in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let emit_get op =
    emit op;
    Op.result1 op
  in
  List.iter emit (m_axi_interface b bv "gmem0");
  List.iter emit (m_axi_interface b av "gmem1");
  List.iter emit (axilite_interface b tv);
  List.iter emit (axilite_interface b kv);
  List.iter emit (axilite_interface b nv);
  let t = emit_get (Memref_d.load b tv []) in
  let k32 = emit_get (Memref_d.load b kv []) in
  let n32 = emit_get (Memref_d.load b nv []) in
  let lb = emit_get (Arith.index_cast b k32 Types.Index) in
  let ub = emit_get (Arith.index_cast b n32 Types.Index) in
  let one = emit_get (Arith.const_index b 1) in
  let loop =
    Scf.for_ b ~lb ~ub ~step:one (fun j _ ->
        let body = ref [] in
        let put op = body := op :: !body in
        let put_get op =
          put op;
          Op.result1 op
        in
        let ii = put_get (Arith.const_i32 b 1) in
        put (Hls.pipeline ii);
        let bj = put_get (Memref_d.load b bv [ j ]) in
        let aj = put_get (Memref_d.load b av [ j ]) in
        let prod = put_get (Arith.mulf b ~fastmath:true t aj) in
        let sum = put_get (Arith.addf b ~fastmath:true bj prod) in
        put (Memref_d.store sum bv [ j ]);
        put (Scf.yield ());
        List.rev !body)
  in
  emit loop;
  emit (Func_d.return ());
  let fn =
    Func_d.func ~sym_name:"sgesl_hw"
      ~args:[ bv; av; tv; kv; nv ]
      ~result_tys:[] (List.rev !ops)
  in
  Builtin.device_module [ fn ]

(* A three-stage dataflow kernel (read -> scale -> write through on-chip
   FIFOs), the dataflow form the paper's Section 2 describes as what HLS
   programmers convert codes into. With [dataflow = true] the stages get
   the hls.dataflow directive and overlap; without it they run back to
   back — the comparison in examples/dataflow.exe. *)
let scale_dataflow_device ?(dataflow = true) ~n () =
  let b = Builder.create () in
  let arr_ty = Types.memref_static ~memory_space:1 [ n ] Types.F32 in
  let scalar_ty = Types.memref ~memory_space:1 [] Types.F32 in
  let x = Builder.fresh b arr_ty in
  let y = Builder.fresh b arr_ty in
  let a = Builder.fresh b scalar_ty in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let emit_get op =
    emit op;
    Op.result1 op
  in
  List.iter emit (m_axi_interface b x "gmem0");
  List.iter emit (m_axi_interface b y "gmem1");
  List.iter emit (axilite_interface b a);
  if dataflow then emit (Hls.dataflow ());
  let s1 = emit_get (Hls.stream_create b Types.F32) in
  let s2 = emit_get (Hls.stream_create b Types.F32) in
  let zero = emit_get (Arith.const_index b 0) in
  let bound = emit_get (Arith.const_index b n) in
  let one = emit_get (Arith.const_index b 1) in
  let stage make_body =
    Scf.for_ b ~lb:zero ~ub:bound ~step:one (fun i _ ->
        let body = ref [] in
        let put op = body := op :: !body in
        let put_get op =
          put op;
          Op.result1 op
        in
        let ii = put_get (Arith.const_i32 b 1) in
        put (Hls.pipeline ii);
        make_body put put_get i;
        put (Scf.yield ());
        List.rev !body)
  in
  emit
    (stage (fun put put_get i ->
         let v = put_get (Memref_d.load b x [ i ]) in
         put (Hls.stream_write ~stream:s1 ~value:v)));
  emit
    (stage (fun put put_get _ ->
         let v = put_get (Hls.stream_read b s1) in
         let av = put_get (Memref_d.load b a []) in
         let r = put_get (Arith.mulf b ~fastmath:true av v) in
         put (Hls.stream_write ~stream:s2 ~value:r)));
  emit
    (stage (fun put put_get i ->
         let r = put_get (Hls.stream_read b s2) in
         put (Memref_d.store r y [ i ])));
  emit (Func_d.return ());
  let fn =
    Func_d.func ~sym_name:"scale_dataflow" ~args:[ x; y; a ] ~result_tys:[]
      (List.rev !ops)
  in
  Builtin.device_module [ fn ]

type baseline_run = {
  result : Executor.result;
  bitstream : Bitstream.t;
  values : float array;  (** The output vector after the run. *)
}

(* Host driver for the dataflow kernel. *)
let run_scale_dataflow ?(spec = Fpga_spec.u280) ?(dataflow = true) ~n ~a ()
    =
  let device = scale_dataflow_device ~dataflow ~n () in
  let bitstream =
    Synth.synthesise ~frontend:Resources.Clang_hls ~spec
      ~xclbin_name:"scale.xclbin" device
  in
  let ctx = Executor.create_context bitstream in
  let x = Array.init n (fun i -> float_of_int (i + 1)) in
  let hx = Rtval.of_float_array Types.F32 x in
  let hy = Rtval.of_float_array Types.F32 (Array.make n 0.0) in
  let ha = Rtval.of_float_array ~shape:[] Types.F32 [| a |] in
  let dx =
    Executor.api_alloc ctx ~name:"x" ~memory_space:1 ~elt:Types.F32 ~shape:[ n ]
  in
  let dy =
    Executor.api_alloc ctx ~name:"y" ~memory_space:1 ~elt:Types.F32 ~shape:[ n ]
  in
  let da =
    Executor.api_alloc ctx ~name:"a" ~memory_space:1 ~elt:Types.F32 ~shape:[]
  in
  Executor.api_transfer ctx ~src:hx ~dst:dx;
  Executor.api_transfer ctx ~src:ha ~dst:da;
  Executor.api_launch ctx ~kernel:"scale_dataflow"
    [ Rtval.Buf dx; Rtval.Buf dy; Rtval.Buf da ];
  Executor.api_transfer ctx ~src:dy ~dst:hy;
  {
    result = Executor.result_of_context ctx;
    bitstream;
    values = Rtval.float_buffer hy;
  }

(* --- hand-written host drivers --- *)

let run_saxpy ?(spec = Fpga_spec.u280) ~n () =
  let device = saxpy_device ~n in
  let bitstream =
    Synth.synthesise ~frontend:Resources.Clang_hls ~spec
      ~xclbin_name:"saxpy_hw.xclbin" device
  in
  let ctx = Executor.create_context bitstream in
  let x, y = References.saxpy_inputs ~n in
  let hx = Rtval.of_float_array Types.F32 x in
  let hy = Rtval.of_float_array Types.F32 y in
  let ha = Rtval.of_float_array ~shape:[] Types.F32 [| 2.0 |] in
  let dx =
    Executor.api_alloc ctx ~name:"x" ~memory_space:1 ~elt:Types.F32
      ~shape:[ n ]
  in
  let dy =
    Executor.api_alloc ctx ~name:"y" ~memory_space:1 ~elt:Types.F32
      ~shape:[ n ]
  in
  let da =
    Executor.api_alloc ctx ~name:"a" ~memory_space:1 ~elt:Types.F32 ~shape:[]
  in
  Executor.api_transfer ctx ~src:hx ~dst:dx;
  Executor.api_transfer ctx ~src:hy ~dst:dy;
  Executor.api_transfer ctx ~src:ha ~dst:da;
  Executor.api_launch ctx ~kernel:"saxpy_hw"
    [ Rtval.Buf dx; Rtval.Buf dy; Rtval.Buf da ];
  Executor.api_transfer ctx ~src:dy ~dst:hy;
  {
    result = Executor.result_of_context ctx;
    bitstream;
    values = Rtval.float_buffer hy;
  }

let run_sgesl ?(spec = Fpga_spec.u280) ~n () =
  let device = sgesl_device ~n in
  let bitstream =
    Synth.synthesise ~frontend:Resources.Clang_hls ~spec
      ~xclbin_name:"sgesl_hw.xclbin" device
  in
  let ctx = Executor.create_context bitstream in
  let a, bvec, ipvt = References.sgesl_inputs ~n in
  let ha = Rtval.of_float_array Types.F32 a in
  let hb = Rtval.of_float_array Types.F32 bvec in
  let da =
    Executor.api_alloc ctx ~name:"a" ~memory_space:1 ~elt:Types.F32
      ~shape:[ n ]
  in
  let db =
    Executor.api_alloc ctx ~name:"b" ~memory_space:1 ~elt:Types.F32
      ~shape:[ n ]
  in
  let dt =
    Executor.api_alloc ctx ~name:"t" ~memory_space:1 ~elt:Types.F32 ~shape:[]
  in
  let dk =
    Executor.api_alloc ctx ~name:"k" ~memory_space:1 ~elt:Types.I32 ~shape:[]
  in
  let dn =
    Executor.api_alloc ctx ~name:"n" ~memory_space:1 ~elt:Types.I32 ~shape:[]
  in
  (* A hand-written host transfers the read-only matrix column and the
     loop bound once, outside the outer loop. *)
  Executor.api_transfer ctx ~src:ha ~dst:da;
  let hn = Rtval.of_int_array ~shape:[] Types.I32 [| n |] in
  Executor.api_transfer ctx ~src:hn ~dst:dn;
  for k = 1 to n - 1 do
    let l = ipvt.(k - 1) in
    let t = Rtval.load hb [ l - 1 ] in
    if l <> k then begin
      Rtval.store hb [ l - 1 ] (Rtval.load hb [ k - 1 ]);
      Rtval.store hb [ k - 1 ] t
    end;
    let ht =
      Rtval.of_float_array ~shape:[] Types.F32 [| Rtval.as_float t |]
    in
    let hk = Rtval.of_int_array ~shape:[] Types.I32 [| k |] in
    Executor.api_transfer ctx ~src:ht ~dst:dt;
    Executor.api_transfer ctx ~src:hk ~dst:dk;
    Executor.api_transfer ctx ~src:hb ~dst:db;
    Executor.api_launch ctx ~kernel:"sgesl_hw"
      [ Rtval.Buf db; Rtval.Buf da; Rtval.Buf dt; Rtval.Buf dk; Rtval.Buf dn ];
    Executor.api_transfer ctx ~src:db ~dst:hb
  done;
  {
    result = Executor.result_of_context ctx;
    bitstream;
    values = Rtval.float_buffer hb;
  }
