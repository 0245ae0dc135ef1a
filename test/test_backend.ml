(* Backend abstraction layer: registry lookup and did-you-mean, the
   vitis/rv descriptors, the RISC-V timing/footprint model, both
   container formats (round-trip and cross-backend rejection), and the
   differential gate — the four evaluation programs must produce
   byte-identical output on every registered backend and on the CPU
   reference, with the fault and profiling layers working unmodified on
   each. *)

open Ftn_backend
module Executor = Ftn_runtime.Executor

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let vitis = Option.get (Backend_registry.find "vitis")
let rv = Option.get (Backend_registry.find "rv")

let options_for backend =
  {
    Core.Options.default with
    Core.Options.backend;
    xclbin_name = Backend.default_binary backend;
  }

let build backend src =
  let options = options_for backend in
  let art = Core.Compiler.compile ~options src in
  let bs = Core.Compiler.synthesise ~options art in
  (art, bs)

let run_on backend ?faults src =
  let art, bs = build backend src in
  Executor.run ?faults ~host:art.Core.Compiler.host ~bitstream:bs ()

(* --- registry --- *)

let registry_tests =
  [
    tc "both built-in backends are registered" (fun () ->
        check (Alcotest.list Alcotest.string) "names" [ "rv"; "vitis" ]
          (Backend_registry.names ()));
    tc "default backend is vitis" (fun () ->
        check Alcotest.string "name" "vitis"
          (Backend.name Backend_registry.default));
    tc "find misses return None" (fun () ->
        check Alcotest.bool "none" true (Backend_registry.find "cuda" = None));
    tc "unknown names fail through the diagnostic engine" (fun () ->
        let diag = Ftn_diag.Diag_engine.create () in
        try
          ignore (Backend_registry.find_exn ~diag "rvv");
          Alcotest.fail "expected Diag_failure"
        with Ftn_diag.Diag.Diag_failure diags ->
          let rendered = Ftn_diag.Diag.render_all diags in
          check Alcotest.bool "mentions the name" true
            (Astring_like.contains rendered "unknown backend 'rvv'");
          check Alcotest.bool "did-you-mean" true
            (Astring_like.contains rendered "did you mean 'rv'?"));
    tc "suggestion picks the edit-distance-closest name" (fun () ->
        check (Alcotest.option Alcotest.string) "vitis" (Some "vitis")
          (Backend_registry.suggestion "vits");
        check (Alcotest.option Alcotest.string) "no match" None
          (Backend_registry.suggestion "completely-unrelated"));
    tc "capability flags distinguish the backends" (fun () ->
        check Alcotest.bool "vitis does DSE" true
          (Backend.has_capability vitis Backend.Dse);
        check Alcotest.bool "rv has no DSE" false
          (Backend.has_capability rv Backend.Dse);
        check Alcotest.bool "rv has no dataflow fabric" false
          (Backend.has_capability rv Backend.Dataflow);
        List.iter
          (fun b ->
            check Alcotest.bool "fault-tolerant" true
              (Backend.has_capability b Backend.Fault_tolerance);
            check Alcotest.bool "profiled" true
              (Backend.has_capability b Backend.Profiling))
          [ vitis; rv ]);
    tc "only HLS backends expose an FPGA spec" (fun () ->
        check Alcotest.bool "vitis" true (Backend.fpga_spec vitis <> None);
        check Alcotest.bool "rv" true (Backend.fpga_spec rv = None));
  ]

(* --- rv model sanity --- *)

let rv_model_tests =
  let schedule_of src =
    let art = Core.Compiler.compile src in
    match art.Core.Compiler.device_hls with
    | Some d ->
      let fn =
        List.find
          (fun o ->
            Ftn_dialects.Func_d.is_func o && Ftn_dialects.Func_d.has_body o)
          (Ftn_ir.Op.module_body d)
      in
      Ftn_hlsim.Schedule.analyse_kernel Ftn_hlsim.Fpga_spec.u280 fn
    | None -> Alcotest.fail "no device module"
  in
  [
    tc "scalar loops pay full memory beats, vector loops amortise" (fun () ->
        let spec = Rv_spec.srv64 in
        let scalar =
          schedule_of (Ftn_linpack.Fortran_sources.sgesl ~n:32)
        in
        let vector =
          schedule_of (Ftn_linpack.Fortran_sources.saxpy ~n:64)
        in
        let loop ks =
          List.hd (Ftn_hlsim.Schedule.flatten_loops ks.Ftn_hlsim.Schedule.loops)
        in
        (* saxpy carries simdlen(10): it must map onto the vector unit *)
        check Alcotest.bool "saxpy vectorises" true
          (Rv_model.vectorised (loop vector));
        let c_scalar = Rv_model.cycles_per_iteration spec (loop scalar) in
        let c_vector = Rv_model.cycles_per_iteration spec (loop vector) in
        check Alcotest.bool "both positive" true
          (c_scalar > 0.0 && c_vector > 0.0);
        check Alcotest.bool "vector beats scalar memory pricing" true
          (c_vector < c_scalar));
    tc "imem overflow is a synthesis error" (fun () ->
        let tiny = { Rv_spec.srv64 with Rv_spec.imem_bytes = 8 } in
        let ks = schedule_of (Ftn_linpack.Fortran_sources.saxpy ~n:64) in
        let r = Rv_model.estimate tiny ks in
        check Alcotest.bool "over 100% imem" true
          (r.Ftn_hlsim.Resources.lut_pct > 100.0));
    tc "footprint reinterprets the shared report shape" (fun () ->
        let ks = schedule_of (Ftn_linpack.Fortran_sources.saxpy ~n:64) in
        let r = Rv_model.estimate Rv_spec.srv64 ks in
        let k = r.Ftn_hlsim.Resources.kernel in
        check Alcotest.bool "insn words" true
          (k.Ftn_hlsim.Resources.luts > 16);
        check Alcotest.bool "within imem" true
          (r.Ftn_hlsim.Resources.lut_pct < 100.0));
    tc "power model scales with duty" (fun () ->
        let ks = schedule_of (Ftn_linpack.Fortran_sources.saxpy ~n:64) in
        let r = Rv_model.estimate Rv_spec.srv64 ks in
        let idle =
          Rv_model.power_w Rv_spec.srv64 r ~kernel_time_s:0.0
            ~device_time_s:1.0
        in
        let busy =
          Rv_model.power_w Rv_spec.srv64 r ~kernel_time_s:1.0
            ~device_time_s:1.0
        in
        check (Alcotest.float 1e-9) "idle floor"
          Rv_spec.srv64.Rv_spec.static_power_w idle;
        check Alcotest.bool "busy above idle" true (busy > idle));
    tc "rv backend reports power through the descriptor" (fun () ->
        let run = ref None in
        let r =
          Core.Run.run
            ~options:(options_for rv)
            (Ftn_linpack.Fortran_sources.saxpy ~n:64)
        in
        run := Some r;
        let w = Core.Run.fpga_power ~backend:rv (Option.get !run) in
        check Alcotest.bool "above static floor" true
          (w >= Rv_spec.srv64.Rv_spec.static_power_w));
  ]

(* --- containers: round-trip and cross-backend rejection --- *)

let container_tests =
  let src = Ftn_linpack.Fortran_sources.saxpy ~n:32 in
  [
    tc "each container round-trips through its own backend" (fun () ->
        List.iter
          (fun backend ->
            let art, bs = build backend src in
            let bs' =
              Backend.load_bitstream backend (Backend.save_bitstream backend bs)
            in
            check Alcotest.string "backend field"
              bs.Ftn_hlsim.Bitstream.backend bs'.Ftn_hlsim.Bitstream.backend;
            check Alcotest.int "kernels"
              (List.length bs.Ftn_hlsim.Bitstream.kernels)
              (List.length bs'.Ftn_hlsim.Bitstream.kernels);
            let a = Executor.run ~host:art.Core.Compiler.host ~bitstream:bs () in
            let b = Executor.run ~host:art.Core.Compiler.host ~bitstream:bs' () in
            check Alcotest.string "same output" a.Executor.output
              b.Executor.output;
            check (Alcotest.float 1e-12) "same simulated time"
              a.Executor.device_time_s b.Executor.device_time_s)
          [ vitis; rv ]);
    tc "containers embed backend name and format version" (fun () ->
        let _, vbs = build vitis src in
        let _, rbs = build rv src in
        let vtext = Backend.save_bitstream vitis vbs in
        let rtext = Backend.save_bitstream rv rbs in
        check (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.int))
          "xclbin header"
          (Some ("XCLBIN", 2))
          (Ftn_hlsim.Bitstream_io.sniff vtext);
        check (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.int))
          "rvbin header"
          (Some ("RVBIN", 1))
          (Ftn_hlsim.Bitstream_io.sniff rtext);
        check (Alcotest.option Alcotest.string) "xclbin backend"
          (Some "vitis")
          (Ftn_hlsim.Bitstream_io.sniff_backend vtext);
        check (Alcotest.option Alcotest.string) "rvbin backend" (Some "rv")
          (Ftn_hlsim.Bitstream_io.sniff_backend rtext));
    tc "cross-backend loads are rejected both ways" (fun () ->
        let _, vbs = build vitis src in
        let _, rbs = build rv src in
        let vtext = Backend.save_bitstream vitis vbs in
        let rtext = Backend.save_bitstream rv rbs in
        let expect_mismatch ~loader ~expected ~found text =
          try
            ignore (Backend.load_bitstream loader text);
            Alcotest.fail "expected Backend_mismatch"
          with Ftn_hlsim.Bitstream_io.Backend_mismatch m ->
            check Alcotest.string "expected" expected m.expected;
            check Alcotest.string "found" found m.found
        in
        expect_mismatch ~loader:vitis ~expected:"vitis" ~found:"rv" rtext;
        expect_mismatch ~loader:rv ~expected:"rv" ~found:"vitis" vtext);
    tc "unreadable input is a format error, not a mismatch" (fun () ->
        List.iter
          (fun backend ->
            try
              ignore (Backend.load_bitstream backend "garbage");
              Alcotest.fail "expected Format_error"
            with Ftn_hlsim.Bitstream_io.Format_error _ -> ())
          [ vitis; rv ]);
  ]

(* --- differential gate: the four evaluation programs --- *)

let programs =
  [
    ("saxpy", Ftn_linpack.Fortran_sources.saxpy ~n:128);
    ("sgesl", Ftn_linpack.Fortran_sources.sgesl ~n:24);
    ("stencil", Ftn_linpack.Fortran_sources.stencil ~n:48 ~steps:4);
    ("reduction", Ftn_linpack.Fortran_sources.dot_product ~n:128 ~simdlen:10);
  ]

(* The same four programs at larger sizes, for the bit-identity check. *)
let larger_programs =
  [
    ("saxpy n=256", Ftn_linpack.Fortran_sources.saxpy ~n:256);
    ("sgesl n=32", Ftn_linpack.Fortran_sources.sgesl ~n:32);
    ("stencil n=64x5", Ftn_linpack.Fortran_sources.stencil ~n:64 ~steps:5);
    ( "reduction n=256",
      Ftn_linpack.Fortran_sources.dot_product ~n:256 ~simdlen:10 );
  ]

let differential_tests =
  [
    tc "all four programs run bit-identically on both backends" (fun () ->
        List.iter
          (fun (name, src) ->
            let v = run_on vitis src in
            let r = run_on rv src in
            check Alcotest.string (name ^ " output") v.Executor.output
              r.Executor.output;
            check Alcotest.int (name ^ " launches") v.Executor.kernel_launches
              r.Executor.kernel_launches;
            check Alcotest.int (name ^ " bytes")
              v.Executor.bytes_transferred r.Executor.bytes_transferred;
            (* the cost models differ, so simulated times must not be
               blindly shared between backends *)
            check Alcotest.bool (name ^ " distinct models") true
              (v.Executor.device_time_s <> r.Executor.device_time_s))
          (programs @ larger_programs));
    tc "backend outputs match the CPU reference" (fun () ->
        List.iter
          (fun (name, src) ->
            let cpu, _ = Core.Run.run_cpu src in
            let r = run_on rv src in
            check Alcotest.string (name ^ " vs cpu") cpu r.Executor.output)
          programs);
  ]

(* --- fault and profiling layers, parameterised over both backends --- *)

let parse_plan text =
  match Ftn_fault.Fault.parse_plan text with
  | Ok p -> p
  | Error m -> Alcotest.fail m

let layer_tests =
  (* name, source and transient plan: a transfer and a launch fault on the
     small input, one fault at every injection site on the larger ones *)
  let every_site = "transfer:nth=1,alloc:nth=1,launch:nth=1,timeout:nth=2" in
  let sources =
    [
      ( "sgesl n=24",
        Ftn_linpack.Fortran_sources.sgesl ~n:24,
        "transfer:nth=1,launch:nth=1" );
      ("sgesl n=64", Ftn_linpack.Fortran_sources.sgesl ~n:64, every_site);
      ( "stencil n=64x5",
        Ftn_linpack.Fortran_sources.stencil ~n:64 ~steps:5,
        every_site );
    ]
  in
  let each f =
    List.iter
      (fun (name, src, transient) ->
        List.iter
          (fun backend ->
            f ~name:(name ^ " on " ^ Backend.name backend) ~transient src
              backend)
          [ vitis; rv ])
      sources
  in
  [
    tc "transient faults recover transparently on both backends" (fun () ->
        each (fun ~name ~transient src backend ->
            let clean = run_on backend src in
            let faulted = run_on backend ~faults:(parse_plan transient) src in
            check Alcotest.string (name ^ " same output") clean.Executor.output
              faulted.Executor.output;
            check Alcotest.bool (name ^ " injected") true
              (faulted.Executor.faults_injected > 0);
            check Alcotest.bool (name ^ " not degraded") false
              faulted.Executor.degraded;
            check Alcotest.bool (name ^ " recovery charged time") true
              (faulted.Executor.device_time_s > clean.Executor.device_time_s)));
    tc "persistent kernel faults degrade to the CPU on both backends"
      (fun () ->
        let plan = parse_plan "launch:nth=1:persistent" in
        each (fun ~name ~transient:_ src backend ->
            let clean = run_on backend src in
            let faulted = run_on backend ~faults:plan src in
            check Alcotest.string (name ^ " same output") clean.Executor.output
              faulted.Executor.output;
            check Alcotest.bool (name ^ " degraded") true
              faulted.Executor.degraded;
            check Alcotest.bool (name ^ " fell back") true
              (faulted.Executor.cpu_fallbacks >= 1)));
    tc "profiling leaves output unchanged on both backends" (fun () ->
        each (fun ~name ~transient:_ src backend ->
            let off = run_on backend src in
            Ftn_obs.Profile.reset ();
            Ftn_obs.Profile.set_enabled true;
            let bs, on =
              Fun.protect
                ~finally:(fun () -> Ftn_obs.Profile.set_enabled false)
                (fun () ->
                  let art, bs = build backend src in
                  let on =
                    Executor.run ~host:art.Core.Compiler.host ~bitstream:bs ()
                  in
                  (bs, on))
            in
            check Alcotest.string (name ^ " same output") off.Executor.output
              on.Executor.output;
            check Alcotest.bool (name ^ " profile recorded") true
              (Ftn_obs.Profile.total_ops () > 0);
            check Alcotest.bool (name ^ " pattern profile recorded") true
              (Ftn_ir.Rewrite.pattern_profile () <> []);
            List.iter
              (fun (k : Ftn_hlsim.Bitstream.kernel_design) ->
                let h =
                  "device.kernel." ^ k.Ftn_hlsim.Bitstream.kd_name
                  ^ ".launch_latency_s"
                in
                check Alcotest.bool (name ^ " " ^ h) true
                  (Ftn_obs.Metrics.histogram_quantile h 0.5 <> None
                  && Ftn_obs.Metrics.histogram_quantile h 0.99 <> None))
              bs.Ftn_hlsim.Bitstream.kernels));
  ]

(* --- container loaders: mutated images fail as structured errors --- *)

let saved_images =
  lazy
    (List.concat_map
       (fun backend ->
         List.map
           (fun (name, src) ->
             let _, bs = build backend src in
             (backend, name, Backend.save_bitstream backend bs))
           [
             ("saxpy", Ftn_linpack.Fortran_sources.saxpy ~n:32);
             ("sgesl", Ftn_linpack.Fortran_sources.sgesl ~n:16);
             ( "reduction",
               Ftn_linpack.Fortran_sources.dot_product ~n:64 ~simdlen:4 );
           ])
       [ vitis; rv ]
    |> Array.of_list)

(* A loader may accept an image or reject it with one of the errors ftnc
   reports; anything else escapes as an internal error. *)
let load_or_reject backend text =
  match Backend.load_bitstream backend text with
  | _ -> true
  | exception
      ( Ftn_hlsim.Bitstream_io.Format_error _
      | Ftn_hlsim.Bitstream_io.Backend_mismatch _
      | Ftn_hlsim.Synth.Synthesis_error _ ) ->
    true

type mutation = Truncate of int | Replace of (int * char) list

let mutate text = function
  | Truncate at -> String.sub text 0 at
  | Replace edits ->
    let b = Bytes.of_string text in
    List.iter (fun (at, c) -> Bytes.set b at c) edits;
    Bytes.to_string b

(* One of the six images, and a cut or 1-4 printable bytes anywhere in it. *)
let mutation_gen =
  let open QCheck.Gen in
  let* i = int_bound 5 in
  let _, _, text = (Lazy.force saved_images).(i) in
  let at = int_bound (String.length text - 1) in
  let* m =
    oneof
      [
        map (fun at -> Truncate at) at;
        map
          (fun edits -> Replace edits)
          (list_size (int_range 1 4) (pair at (char_range ' ' '~')));
      ]
  in
  return (i, m)

let print_mutation (i, m) =
  let backend, name, _ = (Lazy.force saved_images).(i) in
  Fmt.str "%s image of %s, %s" (Backend.name backend) name
    (match m with
    | Truncate at -> Fmt.str "truncated at %d" at
    | Replace edits ->
      String.concat ", "
        (List.map (fun (at, c) -> Fmt.str "byte %d := %C" at c) edits))

let loader_tests =
  [
    tc "a negative record length is a format error" (fun () ->
        let _, bs = build rv (Ftn_linpack.Fortran_sources.saxpy ~n:32) in
        let text =
          String.split_on_char '\n' (Backend.save_bitstream rv bs)
          |> List.map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ ".kernel"; k; _ ] -> ".kernel " ^ k ^ " -5"
                 | _ -> l)
          |> String.concat "\n"
        in
        match Backend.load_bitstream rv text with
        | _ -> Alcotest.fail "expected Format_error"
        | exception Ftn_hlsim.Bitstream_io.Format_error _ -> ());
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000
         ~name:"truncated or overwritten images load or fail as errors"
         (QCheck.make ~print:print_mutation mutation_gen)
         (fun (i, m) ->
           let backend, _, text = (Lazy.force saved_images).(i) in
           load_or_reject backend (mutate text m)));
  ]

let () =
  Alcotest.run "backend"
    [
      ("registry", registry_tests);
      ("rv-model", rv_model_tests);
      ("containers", container_tests);
      ("differential", differential_tests);
      ("layers", layer_tests);
      ("loaders", loader_tests);
    ]
