(* RISC-V accelerator backend (after arXiv:2510.02170): consumes the same
   omp/device IR as the Vitis flow, but the device module is "compiled"
   into a flat binary image for the cluster's instruction memory instead
   of synthesised into fabric. The schedule analysis is shared with the
   HLS flow — only its structural outputs (op counts, beats, unroll,
   trip counts) are consumed; Rv_model prices them with RISC-V rules.

   Container format: FTN-RVBIN v1, a flat image with length-prefixed
   kernel records —

     FTN-RVBIN v1
     backend: rv
     name: kernel.rvbin
     device: ...
     frontend: mlir
     log: ...
     === IMAGE ===
     .kernel <name> <bytes>
     <exactly that many bytes of printed kernel IR>
     .kernel ...

   Loading re-parses each record and re-runs the analysis, mirroring the
   xclbin contract: a loaded image is indistinguishable from a fresh
   build. Cross-backend containers (e.g. an xclbin) are rejected with the
   structured Bitstream_io.Backend_mismatch. *)

open Ftn_ir
open Ftn_dialects
open Ftn_hlsim

let registry_name = "rv"
let format_name = "RVBIN"
let format_version = 1
let magic = Fmt.str "FTN-%s v%d" format_name format_version

let spec = Rv_spec.srv64
let model = Rv_model.model spec

(* The shared scheduler needs an FPGA spec to price its (Vitis-specific)
   cycles_per_iteration column; only the structural columns — op counts,
   port beats, unroll, static trips, nesting — are read by Rv_model, and
   those are spec-independent. *)
let structural_spec = Fpga_spec.u280

let synthesise ?(frontend = Resources.Mlir_flow) ?(binary_name = "kernel.rvbin")
    device_module =
  Ftn_obs.Span.with_span ~name:"synth.rv"
    ~attrs:[ ("image", binary_name) ]
    (fun () ->
  if not (Op.is_module device_module) then
    raise (Synth.Synthesis_error "device code must be a builtin.module");
  let log = ref [] in
  let say fmt = Fmt.kstr (fun s -> log := s :: !log) fmt in
  say "rvcc -march=rv64gcv --target=%s (simulated)" spec.Rv_spec.name;
  let kernels =
    List.filter_map
      (fun op ->
        if Func_d.is_func op && Func_d.has_body op then begin
          let ks = Schedule.analyse_kernel structural_spec op in
          let res = Rv_model.estimate spec ks in
          if res.Resources.lut_pct > 100.0 then
            raise
              (Synth.Synthesis_error
                 (Fmt.str "kernel image for %s exceeds instruction memory"
                    ks.Schedule.fn_name));
          Ftn_obs.Metrics.incr "synth.kernels";
          say "compile: %s (%d insn words, %.2f%% imem)"
            ks.Schedule.fn_name res.Resources.kernel.Resources.luts
            res.Resources.lut_pct;
          List.iter
            (fun (l : Schedule.loop_info) ->
              say "  loop@%d: %.1f cycles/iter (%s)" l.Schedule.loop_key
                (Rv_model.cycles_per_iteration spec l)
                (if Rv_model.vectorised l then
                   Fmt.str "vectorised, VL=%d"
                     (min l.Schedule.unroll spec.Rv_spec.vector_lanes)
                 else "scalar"))
            (Schedule.flatten_loops ks.Schedule.loops);
          Some
            {
              Bitstream.kd_name = ks.Schedule.fn_name;
              kd_schedule = ks;
              kd_resources = res;
              kd_function = op;
            }
        end
        else None)
      (Op.module_body device_module)
  in
  if kernels = [] then
    raise (Synth.Synthesis_error "device module contains no kernel functions");
  say "link: flat image %s" binary_name;
  {
    Bitstream.xclbin_name = binary_name;
    backend = registry_name;
    device_name = spec.Rv_spec.name;
    model;
    frontend;
    kernels;
    build_log = List.rev !log;
  })

(* --- FTN-RVBIN container --- *)

let save (bs : Bitstream.t) =
  let buf = Buffer.create 4096 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" magic;
  line "backend: %s" bs.Bitstream.backend;
  line "name: %s" bs.Bitstream.xclbin_name;
  line "device: %s" bs.Bitstream.device_name;
  line "frontend: %s"
    (match bs.Bitstream.frontend with
    | Resources.Clang_hls -> "clang"
    | Resources.Mlir_flow -> "mlir");
  List.iter (fun l -> line "log: %s" l) bs.Bitstream.build_log;
  line "=== IMAGE ===";
  List.iter
    (fun k ->
      let text =
        Printer.to_string
          (Op.module_op
             ~attrs:[ ("target", Attr.String "rv") ]
             [ k.Bitstream.kd_function ])
      in
      line ".kernel %s %d" k.Bitstream.kd_name (String.length text);
      Buffer.add_string buf text)
    bs.Bitstream.kernels;
  Buffer.contents buf

let save_file bs path =
  let oc = open_out_bin path in
  output_string oc (save bs);
  close_out oc

let load text =
  (match Bitstream_io.sniff text with
  | Some (fmt, ver) when fmt = format_name && ver = format_version -> ()
  | Some (fmt, ver) ->
    let found =
      match Bitstream_io.sniff_backend text with
      | Some b -> b
      | None -> Fmt.str "%s v%d" fmt ver
    in
    raise
      (Bitstream_io.Backend_mismatch
         {
           expected = registry_name;
           found;
           format = Fmt.str "FTN-%s v%d" fmt ver;
         })
  | None ->
    raise (Bitstream_io.Format_error "not a simulated rv image (bad magic)"));
  let lines = String.split_on_char '\n' text in
  let field p =
    List.find_map
      (fun l ->
        let l = String.trim l in
        if
          String.length l > String.length p
          && String.sub l 0 (String.length p) = p
        then
          Some
            (String.sub l (String.length p) (String.length l - String.length p))
        else None)
      lines
  in
  (match field "backend: " with
  | Some b when b <> registry_name ->
    raise
      (Bitstream_io.Backend_mismatch
         { expected = registry_name; found = b; format = magic })
  | _ -> ());
  let name = Option.value ~default:"kernel.rvbin" (field "name: ") in
  let frontend =
    match field "frontend: " with
    | Some "clang" -> Resources.Clang_hls
    | _ -> Resources.Mlir_flow
  in
  let marker = "=== IMAGE ===\n" in
  let image_start =
    let rec find i =
      if i + String.length marker > String.length text then
        raise (Bitstream_io.Format_error "missing image section")
      else if String.sub text i (String.length marker) = marker then
        i + String.length marker
      else find (i + 1)
    in
    find 0
  in
  (* length-prefixed kernel records *)
  let funcs = ref [] in
  let pos = ref image_start in
  while !pos < String.length text do
    let eol =
      match String.index_from_opt text !pos '\n' with
      | Some i -> i
      | None -> String.length text
    in
    let header = String.trim (String.sub text !pos (eol - !pos)) in
    if header = "" then pos := eol + 1
    else begin
      (match String.split_on_char ' ' header with
      | [ ".kernel"; kname; len ] -> (
        match int_of_string_opt len with
        | Some len when len >= 0 && eol + 1 + len <= String.length text ->
          let body = String.sub text (eol + 1) len in
          let m =
            try Ir_parser.parse_module body
            with Ir_parser.Parse_error (msg, p) ->
              raise
                (Bitstream_io.Format_error
                   (Fmt.str "bad kernel IR for %s at offset %d: %s" kname p msg))
          in
          List.iter (fun op -> funcs := op :: !funcs) (Op.module_body m);
          pos := eol + 1 + len
        | _ ->
          raise
            (Bitstream_io.Format_error
               (Fmt.str "truncated kernel record for %s" kname)))
      | _ ->
        raise
          (Bitstream_io.Format_error ("bad image record: " ^ header)))
    end
  done;
  let device_module =
    Op.module_op ~attrs:[ ("target", Attr.String "rv") ] (List.rev !funcs)
  in
  synthesise ~frontend ~binary_name:name device_module

let load_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  load text

let backend : Backend.t =
  (module struct
    let name = registry_name
    let device = spec.Rv_spec.name

    let description =
      "RISC-V accelerator cluster, flat-binary offload (after \
       arXiv:2510.02170)"

    let capabilities =
      Backend.[ Fault_tolerance; Profiling; Power_model ]

    let fpga_spec = None
    let model = model
    let default_binary = "kernel.rvbin"
    let synthesise ?frontend ?binary_name m = synthesise ?frontend ?binary_name m
    let lower_device = Ftn_codegen.Rv_intrinsics.run

    let emit_kernel_ir m =
      Ftn_codegen.Llvm_ir.emit_module
        ~header:Ftn_codegen.Llvm_ir.rv_target_header m

    let emit_kernel_compat _ = None

    let emit_host ?binary m =
      Ftn_codegen.Host_cpp.emit_module ~target:Ftn_codegen.Host_cpp.Rv
        ?xclbin:binary m

    let save_bitstream = save
    let save_bitstream_file = save_file
    let load_bitstream = load
    let load_bitstream_file = load_file

    let power_w report ~kernel_time_s ~device_time_s =
      Rv_model.power_w spec report ~kernel_time_s ~device_time_s
  end)
