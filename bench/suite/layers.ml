(* Core.Compiler.compile, one public layer call at a time, each inside a
   span recorded into a collector the benchmark owns. Span names are
   "<layer>.<step>"; counts ride along as span attributes, so the span
   list alone carries every per-layer number. The spans the compiler
   records internally still go to the ambient collector, as in an
   untraced run. The artifacts must equal Core.Compiler.compile's byte
   for byte; the suite's tests check that. *)

open Ftn_obs

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Run [f] in a span and return it with [f]'s result, so attributes
   computed afterwards are not timed. *)
let spanned ~collector ?attrs name f =
  Span.with_span_sp ~collector ?attrs ~name (fun sp -> (sp, f ()))

let set_num sp key v = Span.set_attr sp ~key (Printf.sprintf "%.17g" v)
let set_int sp key n = Span.set_attr sp ~key (string_of_int n)

(* The mid-end's stages in order, as {!stage_keys} names them. *)
let stages =
  [
    "lower-acc-to-omp";
    "lower-omp-mapped-data";
    "lower-omp-target-region";
    "canonicalize";
    "lower-omp-loops-to-hls";
    "canonicalize-2";
    "lower-hls-to-func-call";
    "convert-to-llvm";
  ]

(* Pass names repeat (canonicalize runs on the host and on the device
   module); the second occurrence becomes "<name>-2". *)
let stage_keys (stages : Ftn_ir.Pass.stage_record list) =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (r : Ftn_ir.Pass.stage_record) ->
      if r.stage_name = "input" then None
      else begin
        let k = 1 + Option.value ~default:0 (Hashtbl.find_opt seen r.stage_name) in
        Hashtbl.replace seen r.stage_name k;
        let key = if k = 1 then r.stage_name else Fmt.str "%s-%d" r.stage_name k in
        Some (key, r)
      end)
    stages

let rewrite_counters () =
  ( Metrics.counter_value "rewrite.ops_visited",
    Metrics.counter_value "rewrite.patterns_fired" )

let compile ~collector ?(options = Core.Options.default) source =
  let open Ftn_frontend in
  let span name f = spanned ~collector name f in
  let _, ast = span "fortran.parse" (fun () -> Frontend.parse source) in
  let _, checked = span "fortran.sema" (fun () -> Sema.check ast) in
  let _, fir_module =
    span "fortran.to_fir" (fun () -> Lower_fir.lower checked)
  in
  let sp, core_module =
    span "fortran.fir_to_core" (fun () -> Fir_to_core.run fir_module)
  in
  set_int sp "ops" (Ftn_ir.Pass.count_ops core_module);
  ignore (span "ir.verify" (fun () -> Ftn_ir.Verifier.verify_exn core_module));
  let visited0, fired0 = rewrite_counters () in
  let sp, r =
    span "passes.mid_end" (fun () ->
        Ftn_passes.Pipeline.run_mid_end ~options:options.Core.Options.pipeline
          core_module)
  in
  let visited1, fired1 = rewrite_counters () in
  set_int sp "rewrite_visited" (visited1 - visited0);
  set_int sp "rewrite_fired" (fired1 - fired0);
  List.iter
    (fun (key, (st : Ftn_ir.Pass.stage_record)) ->
      set_num sp (key ^ ".ms") (st.elapsed_s *. 1e3);
      set_int sp (key ^ ".ops") st.op_count;
      set_num sp (key ^ ".alloc_mb") (st.alloc_bytes /. 1e6))
    (stage_keys r.Ftn_passes.Pipeline.stages);
  let backend = options.Core.Options.backend in
  let device_llvm =
    Option.map
      (fun m ->
        snd
          (span "codegen.lower_device" (fun () ->
               Ftn_backend.Backend.lower_device backend m)))
      r.Ftn_passes.Pipeline.device_llvm
  in
  let emit name f =
    let sp, text = span name f in
    set_int sp "bytes" (String.length text);
    text
  in
  let llvm_ir =
    if options.Core.Options.emit_llvm then
      Option.map
        (fun m ->
          emit "codegen.emit_llvm_ir" (fun () ->
              Ftn_backend.Backend.emit_kernel_ir backend m))
        device_llvm
    else None
  in
  let llvm_ir_downgraded =
    Option.bind llvm_ir (fun text ->
        snd
          (span "codegen.llvm_compat" (fun () ->
               Ftn_backend.Backend.emit_kernel_compat backend text)))
  in
  let host_cpp =
    if options.Core.Options.emit_cpp && r.Ftn_passes.Pipeline.device_core <> None
    then
      Some
        (emit "codegen.host_cpp" (fun () ->
             Ftn_backend.Backend.emit_host backend
               ~binary:options.Core.Options.xclbin_name
               r.Ftn_passes.Pipeline.host))
    else None
  in
  {
    Core.Compiler.source;
    fir_module;
    core_module;
    combined = r.Ftn_passes.Pipeline.combined;
    host = r.Ftn_passes.Pipeline.host;
    device_core = r.Ftn_passes.Pipeline.device_core;
    device_hls = r.Ftn_passes.Pipeline.device_hls;
    device_llvm;
    llvm_ir;
    llvm_ir_downgraded;
    host_cpp;
    stages = r.Ftn_passes.Pipeline.stages;
  }

(* Bytes of generated code: LLVM-IR, its LLVM-7 downgrade and the host
   C++. *)
let code_bytes (a : Core.Compiler.artifacts) =
  let len = function Some s -> String.length s | None -> 0 in
  len a.llvm_ir + len a.llvm_ir_downgraded + len a.host_cpp
