(* End-to-end tests: full Fortran programs compiled through every stage and
   executed on the simulated FPGA, checked against OCaml references and
   against CPU-mode execution. *)

open Ftn_runtime

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let contains = Astring_like.contains

let max_abs_diff a b =
  let m = ref 0.0 in
  Array.iteri (fun i v -> m := Float.max !m (Float.abs (v -. b.(i)))) a;
  !m

let e2e_tests =
  [
    tc "saxpy matches the reference exactly" (fun () ->
        let n = 256 in
        let run = Core.Run.run (Ftn_linpack.Fortran_sources.saxpy ~n) in
        let x, y = Ftn_linpack.References.saxpy_inputs ~n in
        Ftn_linpack.References.saxpy ~a:2.0 ~x ~y;
        let got = Option.get (Core.Run.device_floats run ~name:"y") in
        check (Alcotest.float 0.0) "bit exact" 0.0 (max_abs_diff got y));
    tc "sgesl matches the reference exactly" (fun () ->
        let n = 48 in
        let run = Core.Run.run (Ftn_linpack.Fortran_sources.sgesl ~n) in
        let a, b, ipvt = Ftn_linpack.References.sgesl_inputs ~n in
        Ftn_linpack.References.sgesl_update ~n ~a ~b ~ipvt;
        let got = Option.get (Core.Run.device_floats run ~name:"b") in
        check (Alcotest.float 0.0) "bit exact" 0.0 (max_abs_diff got b));
    tc "hand-written baselines agree with the compiled flow" (fun () ->
        let n = 128 in
        let run = Core.Run.run (Ftn_linpack.Fortran_sources.saxpy ~n) in
        let hand = Ftn_linpack.Hls_baselines.run_saxpy ~n () in
        let got = Option.get (Core.Run.device_floats run ~name:"y") in
        check (Alcotest.float 0.0) "same" 0.0
          (max_abs_diff got hand.Ftn_linpack.Hls_baselines.values);
        let n2 = 32 in
        let run2 = Core.Run.run (Ftn_linpack.Fortran_sources.sgesl ~n:n2) in
        let hand2 = Ftn_linpack.Hls_baselines.run_sgesl ~n:n2 () in
        let got2 = Option.get (Core.Run.device_floats run2 ~name:"b") in
        check (Alcotest.float 0.0) "same sgesl" 0.0
          (max_abs_diff got2 hand2.Ftn_linpack.Hls_baselines.values));
    tc "dot product with reduction matches reference" (fun () ->
        let n = 200 in
        let run =
          Core.Run.run (Ftn_linpack.Fortran_sources.dot_product ~n ~simdlen:4)
        in
        let x, y = Ftn_linpack.References.dot_inputs ~n in
        let expect = Ftn_linpack.References.dot ~x ~y in
        (* result printed; the reduction reorders sums, so allow relative
           rounding slack *)
        let out = Core.Run.output run in
        check Alcotest.bool "has dot" true (contains out "dot");
        let total = Option.get (Core.Run.device_floats run ~name:"total") in
        check Alcotest.bool "close" true
          (Float.abs (total.(0) -. expect) /. Float.abs expect < 1e-4));
    tc "reduction executes round-robin but sums completely" (fun () ->
        (* n smaller than the copy count exercises the identity padding *)
        let run =
          Core.Run.run (Ftn_linpack.Fortran_sources.dot_product ~n:3 ~simdlen:2)
        in
        let x, y = Ftn_linpack.References.dot_inputs ~n:3 in
        let expect = Ftn_linpack.References.dot ~x ~y in
        let total = Option.get (Core.Run.device_floats run ~name:"total") in
        check Alcotest.bool "exact for tiny n" true
          (Float.abs (total.(0) -. expect) < 1e-6));
    tc "nested data regions transfer once (paper Listing 1)" (fun () ->
        let n = 32 in
        let run = Core.Run.run (Ftn_linpack.Fortran_sources.data_regions ~n) in
        let events = Trace.events run.Core.Run.exec.Executor.trace in
        let h2d, d2h =
          List.fold_left
            (fun (i, o) e ->
              match e with
              | Trace.Transfer { direction = Trace.Host_to_device; _ } -> (i + 1, o)
              | Trace.Transfer { direction = Trace.Device_to_host; _ } -> (i, o + 1)
              | _ -> (i, o))
            (0, 0) events
        in
        (* b copied in once; a (map from) never copied in, copied out once
           when the outer data region ends *)
        check Alcotest.int "h2d" 1 h2d;
        check Alcotest.int "d2h" 1 d2h;
        (* and the result is correct: a(i) = 2*b(i) = 2*i *)
        let a = Option.get (Core.Run.device_floats run ~name:"a") in
        check (Alcotest.float 0.0) "a(n)" (2.0 *. float_of_int n) a.(n - 1));
    tc "implicit map inside data region does not re-transfer" (fun () ->
        (* two kernels over the same mapped array inside one data region:
           the second target's implicit map finds the data present *)
        let src =
          "program p\nreal :: a(16)\ninteger :: i\n!$omp target data map(tofrom:a)\n!$omp target parallel do\ndo i = 1, 16\na(i) = 1.0\nend do\n!$omp end target parallel do\n!$omp target parallel do\ndo i = 1, 16\na(i) = a(i) + 1.0\nend do\n!$omp end target parallel do\n!$omp end target data\nend program"
        in
        let run = Core.Run.run src in
        let transfers =
          List.length
            (List.filter
               (function Trace.Transfer _ -> true | _ -> false)
               (Trace.events run.Core.Run.exec.Executor.trace))
        in
        (* one in + one out, despite two kernels *)
        check Alcotest.int "two transfers" 2 transfers;
        check Alcotest.int "two launches" 2
          run.Core.Run.exec.Executor.kernel_launches;
        let a = Option.get (Core.Run.device_floats run ~name:"a") in
        check (Alcotest.float 0.0) "both kernels ran" 2.0 a.(7));
    tc "collapse(2) kernel runs correctly" (fun () ->
        let src =
          "program p\nreal :: a(4, 8)\ninteger :: i, j\n!$omp target parallel do collapse(2)\ndo i = 1, 4\ndo j = 1, 8\na(i, j) = real(i * 10 + j)\nend do\nend do\n!$omp end target parallel do\nprint *, a(2, 3)\nend program"
        in
        let run = Core.Run.run src in
        check Alcotest.bool "a(2,3) = 23" true
          (contains (Core.Run.output run) "23.0"));
    tc "2D arrays use column-major layout end to end" (fun () ->
        let src =
          "program p\nreal :: a(3, 2)\ninteger :: i, j\ndo j = 1, 2\ndo i = 1, 3\na(i, j) = real(i + j * 100)\nend do\nend do\nprint *, a(3, 1), a(1, 2)\nend program"
        in
        let out, _ = Core.Run.run_cpu src in
        check Alcotest.bool "a(3,1)" true (contains out "103.0");
        check Alcotest.bool "a(1,2)" true (contains out "201.0"));
    tc "subroutine offload with dummy arguments" (fun () ->
        let src =
          "subroutine scale(v, n)\ninteger :: n\nreal :: v(n)\ninteger :: i\n!$omp target parallel do\ndo i = 1, n\nv(i) = v(i) * 3.0\nend do\n!$omp end target parallel do\nend subroutine\nprogram p\nreal :: w(8)\ninteger :: i\ndo i = 1, 8\nw(i) = 1.0\nend do\ncall scale(w, 8)\nprint *, w(8)\nend program"
        in
        let run = Core.Run.run src in
        check Alcotest.bool "scaled" true (contains (Core.Run.output run) "3.0"));
    tc "full LINPACK solver (sgefa + sgesl reference)" (fun () ->
        (* sanity for the reference implementations themselves *)
        let n = 24 in
        let a = Array.init (n * n) (fun k ->
            let i = k mod n and j = k / n in
            if i = j then 4.0 else 1.0 /. float_of_int (1 + abs (i - j)))
        in
        let a_orig = Array.copy a in
        let b = Array.init n (fun i -> float_of_int (i + 1)) in
        let b_orig = Array.copy b in
        let ipvt = Array.make n 0 in
        let info = Ftn_linpack.References.sgefa ~n a ipvt in
        check Alcotest.int "nonsingular" 0 info;
        Ftn_linpack.References.sgesl ~n a ipvt b;
        let r = Ftn_linpack.References.residual ~n a_orig b b_orig in
        check Alcotest.bool "small residual" true (r < 1e-3));
    tc "conditional offload: target under an if statement" (fun () ->
        let src which =
          Printf.sprintf
            "program p\nreal :: y(8)\nlogical :: go\ninteger :: i\ngo = %s\ndo i = 1, 8\ny(i) = -1.0\nend do\nif (go) then\n!$omp target parallel do\ndo i = 1, 8\ny(i) = real(i)\nend do\n!$omp end target parallel do\nend if\nprint *, y(8)\nend program"
            which
        in
        let taken = Core.Run.run (src ".true.") in
        check Alcotest.int "launched" 1
          taken.Core.Run.exec.Executor.kernel_launches;
        check Alcotest.bool "computed" true
          (contains (Core.Run.output taken) "8.0");
        let skipped = Core.Run.run (src ".false.") in
        check Alcotest.int "not launched" 0
          skipped.Core.Run.exec.Executor.kernel_launches;
        check Alcotest.bool "untouched" true
          (contains (Core.Run.output skipped) "-1.0"));
    tc "map(alloc:) transfers nothing" (fun () ->
        let src =
          "program p\nreal :: a(8), tmp(8)\ninteger :: i\n!$omp target data map(tofrom:a) map(alloc:tmp)\n!$omp target parallel do\ndo i = 1, 8\ntmp(i) = real(i)\na(i) = tmp(i) * 2.0\nend do\n!$omp end target parallel do\n!$omp end target data\nprint *, a(8)\nend program"
        in
        let run = Core.Run.run src in
        (* a in + a out only: tmp is device-only scratch *)
        check Alcotest.int "bytes" (2 * 8 * 4)
          run.Core.Run.exec.Executor.bytes_transferred;
        check Alcotest.bool "result" true
          (contains (Core.Run.output run) "16.0"));
    tc "two kernels share one bitstream" (fun () ->
        let src =
          "program p\nreal :: a(8)\ninteger :: i\n!$omp target parallel do map(from:a)\ndo i = 1, 8\na(i) = 1.0\nend do\n!$omp end target parallel do\n!$omp target parallel do map(tofrom:a)\ndo i = 1, 8\na(i) = a(i) + 1.0\nend do\n!$omp end target parallel do\nprint *, a(1)\nend program"
        in
        let run = Core.Run.run src in
        check Alcotest.int "two kernels in bitstream" 2
          (List.length run.Core.Run.bitstream.Ftn_hlsim.Bitstream.kernels);
        check Alcotest.bool "chained" true (contains (Core.Run.output run) "2.0"));
    tc "device-side do-while is rejected with a clear error" (fun () ->
        let src =
          "program p\nreal :: y(4)\ninteger :: i, k\n!$omp target map(tofrom:y)\nk = 0\ndo while (k < 4)\nk = k + 1\ny(k) = 1.0\nend do\n!$omp end target\nend program"
        in
        (try
           ignore (Core.Compiler.compile src);
           Alcotest.fail "expected a located diagnostic"
         with Ftn_diag.Diag.Diag_failure (d :: _) ->
           check Alcotest.bool "names the construct" true
             (let m = d.Ftn_diag.Diag.message in
              let needle = "scf.while" in
              let nl = String.length needle and hl = String.length m in
              let rec go i =
                i + nl <= hl && (String.sub m i nl = needle || go (i + 1))
              in
              go 0);
           check Alcotest.bool "located" true
             (Ftn_diag.Loc.is_known d.Ftn_diag.Diag.loc));
        (* but compiling without the llvm stage works, and it executes *)
        let core = Ftn_frontend.Frontend.to_core src in
        let r = Ftn_passes.Pipeline.run_mid_end ~to_llvm:false core in
        check Alcotest.bool "device module exists" true
          (r.Ftn_passes.Pipeline.device_hls <> None));
    tc "per-stage records cover the paper's Figure 2 pipeline" (fun () ->
        let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:16) in
        let names = List.map (fun s -> s.Ftn_ir.Pass.stage_name) art.Core.Compiler.stages in
        List.iter
          (fun expected ->
            check Alcotest.bool (expected ^ " present") true
              (List.exists (fun n -> n = expected) names))
          [ "lower-omp-mapped-data"; "lower-omp-target-region";
            "lower-omp-loops-to-hls"; "lower-hls-to-func-call";
            "convert-to-llvm" ]);
    tc "every intermediate module verifies" (fun () ->
        let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.sgesl ~n:8) in
        Ftn_ir.Verifier.verify_exn art.Core.Compiler.core_module;
        Ftn_ir.Verifier.verify_exn art.Core.Compiler.host;
        Option.iter Ftn_ir.Verifier.verify_exn art.Core.Compiler.device_core;
        Option.iter Ftn_ir.Verifier.verify_exn art.Core.Compiler.device_hls;
        Option.iter Ftn_ir.Verifier.verify_exn art.Core.Compiler.device_llvm);
    tc "printed IR of every stage re-parses" (fun () ->
        let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:8) in
        let roundtrip m =
          let text = Ftn_ir.Printer.to_string m in
          let m' = Ftn_ir.Ir_parser.parse_module text in
          check Alcotest.string "same" text (Ftn_ir.Printer.to_string m')
        in
        roundtrip art.Core.Compiler.fir_module;
        roundtrip art.Core.Compiler.core_module;
        roundtrip art.Core.Compiler.host;
        Option.iter roundtrip art.Core.Compiler.device_hls;
        Option.iter roundtrip art.Core.Compiler.device_llvm);
    tc "simulated measurement harness reports median and std" (fun () ->
        let s = Core.Measure.measure ~runs:10 ~seed:7 1.0e-3 in
        check Alcotest.int "ten runs" 10 (List.length s.Core.Measure.runs);
        check Alcotest.bool "median near truth" true
          (Float.abs (s.Core.Measure.median -. 1.0e-3) < 1.0e-4);
        check Alcotest.bool "std positive" true (s.Core.Measure.std > 0.0);
        (* deterministic: same seed, same numbers *)
        let s2 = Core.Measure.measure ~runs:10 ~seed:7 1.0e-3 in
        check (Alcotest.float 0.0) "deterministic" s.Core.Measure.median
          s2.Core.Measure.median);
    tc "power model produces the paper's ordering" (fun () ->
        let run = Core.Run.run (Ftn_linpack.Fortran_sources.saxpy ~n:512) in
        let fpga = Core.Run.fpga_power run in
        let cpu =
          Ftn_hlsim.Power.cpu_power_w Ftn_hlsim.Fpga_spec.u280 ~kernel_time_s:0.1
        in
        check Alcotest.bool "fpga about half of cpu" true
          (fpga < cpu /. 1.7 && fpga > cpu /. 3.0));
    tc "real /= is true on a NaN and emits fcmp une" (fun () ->
        (* Fortran's /= is IEEE unordered-not-equal: NaN /= NaN holds *)
        let art =
          Core.Compiler.compile
            "program nancmp\n\
             implicit none\n\
             real :: a(4)\n\
             integer :: i\n\
             !$omp target parallel do map(from:a)\n\
             do i = 1, 4\n\
             if (0.0 / 0.0 /= 0.0 / 0.0) then\n\
             a(i) = 1.0\n\
             else\n\
             a(i) = 2.0\n\
             end if\n\
             end do\n\
             !$omp end target parallel do\n\
             print *, a(1), a(4)\n\
             end program nancmp\n"
        in
        let bitstream = Core.Compiler.synthesise art in
        List.iter
          (fun engine ->
            let r =
              Executor.run ~engine ~host:art.Core.Compiler.host ~bitstream ()
            in
            check Alcotest.string "device output" " 1.000000 1.000000\n"
              r.Executor.output;
            let cpu, _ =
              Executor.run_cpu ~engine art.Core.Compiler.core_module
            in
            check Alcotest.string "cpu output" " 1.000000 1.000000\n" cpu)
          [ `Tree; `Compiled ];
        let llvm = Option.get art.Core.Compiler.llvm_ir in
        check Alcotest.bool "fcmp une" true (contains llvm "fcmp une");
        check Alcotest.bool "no fcmp one" false (contains llvm "fcmp one"));
  ]


(* --- the ftnc driver's backend selection, end to end --- *)

let cli_capture cmd =
  let out_file = Filename.temp_file "ftnc" ".out" in
  let err_file = Filename.temp_file "ftnc" ".err" in
  let code =
    Sys.command
      (Fmt.str "%s > %s 2> %s" cmd (Filename.quote out_file)
         (Filename.quote err_file))
  in
  let slurp path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  (code, slurp out_file, slurp err_file)

let with_source_file name src f =
  let src_file = Filename.temp_file name ".f90" in
  let oc = open_out src_file in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove src_file) (fun () -> f src_file)

let with_saxpy_file f =
  with_source_file "saxpy" (Ftn_linpack.Fortran_sources.saxpy ~n:32) f

(* Count the non-overlapping occurrences of [sub] in [s]. *)
let occurrences sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* A runtime error of an interpreted program must end as one diagnostic
   under either interpreter engine: inside an offloaded loop, located at
   the loop's target directive ([line]); in host code, which does not say
   which op was executing, without a location ([line] absent). *)
let runtime_error_case name ?line ~message src =
  tc name (fun () ->
      with_source_file "kernel" src (fun file ->
          (* on the device, then with --cpu, where nothing is located *)
          List.iter
            (fun (engine, cpu) ->
              let code, _, err =
                cli_capture
                  (Fmt.str "../bin/ftnc.exe run %s --interp-engine %s%s"
                     (Filename.quote file) engine
                     (if cpu then " --cpu" else ""))
              in
              let what =
                Fmt.str "%s (%s%s)" name engine (if cpu then ", cpu" else "")
              in
              check Alcotest.int (what ^ ": exit 1") 1 code;
              check Alcotest.int (what ^ ": one error") 1
                (occurrences "error:" err);
              (match line with
              | Some l when not cpu ->
                check Alcotest.bool (what ^ ": at the target line") true
                  (contains err (Fmt.str "%s:%d:" file l))
              | _ ->
                check Alcotest.bool (what ^ ": not located") false
                  (contains err file));
              check Alcotest.bool (what ^ ": message") true
                (contains err message);
              check Alcotest.bool (what ^ ": no internal error") false
                (contains err "internal error"))
            [ ("tree", false); ("compiled", false); ("tree", true);
              ("compiled", true) ]))

let runtime_error_tests =
  [
    runtime_error_case "an out-of-bounds store in a kernel is located"
      ~line:10 ~message:"index 16 out of bounds for dimension of size 16"
      "program oob\n\
       implicit none\n\
       real :: a(16)\n\
       integer :: i\n\
       do i = 1, 16\n\
       a(i) = 0.0\n\
       end do\n\
       print *, 'start'\n\
       ! one element past the end\n\
       !$omp target parallel do map(tofrom:a)\n\
       do i = 1, 17\n\
       a(i) = real(i)\n\
       end do\n\
       !$omp end target parallel do\n\
       print *, a(1)\n\
       end program oob\n";
    runtime_error_case "an integer division by zero in a kernel is located"
      ~line:10 ~message:"integer division by zero"
      "program div0\n\
       implicit none\n\
       integer :: a(8)\n\
       integer :: i, z\n\
       z = 0\n\
       do i = 1, 8\n\
       a(i) = i\n\
       end do\n\
       ! divides by z\n\
       !$omp target parallel do map(tofrom:a) map(to:z)\n\
       do i = 1, 8\n\
       a(i) = a(i) / z\n\
       end do\n\
       !$omp end target parallel do\n\
       print *, a(1)\n\
       end program div0\n";
    runtime_error_case "an out-of-bounds store after a kernel is not located"
      ~message:"index 16 out of bounds for dimension of size 16"
      "program hostoob\n\
       implicit none\n\
       real :: a(16)\n\
       integer :: i, k\n\
       k = 17\n\
       do i = 1, 16\n\
       a(i) = 0.0\n\
       end do\n\
       ! the kernel runs cleanly; the host store after it does not\n\
       !$omp target parallel do map(tofrom:a)\n\
       do i = 1, 16\n\
       a(i) = real(i)\n\
       end do\n\
       !$omp end target parallel do\n\
       a(k) = 1.0\n\
       print *, a(1)\n\
       end program hostoob\n";
    (* 2000000000^2 f32 elements take 1.6e19 bytes, more than an int
       holds, so the size check fails before anything is allocated *)
    runtime_error_case "an array too large to allocate is an error"
      ~message:"cannot allocate f32[2000000000x2000000000]"
      "program huge\n\
       implicit none\n\
       integer, parameter :: n = 2000000000\n\
       real :: a(n, n)\n\
       integer :: i\n\
       !$omp target parallel do map(tofrom:a)\n\
       do i = 1, 4\n\
       a(i, 1) = 1.0\n\
       end do\n\
       !$omp end target parallel do\n\
       print *, a(1, 1)\n\
       end program huge\n";
    tc "an integer literal beyond the default kind is located" (fun () ->
        with_source_file "big"
          "program big\n\
           implicit none\n\
           integer, parameter :: n = 3000000000\n\
           real :: a(n)\n\
           a(1) = 1.0\n\
           print *, a(1)\n\
           end program big\n"
          (fun file ->
            List.iter
              (fun flags ->
                let code, _, err =
                  cli_capture
                    (Fmt.str "../bin/ftnc.exe run %s%s" (Filename.quote file)
                       flags)
                in
                check Alcotest.int (flags ^ " exit 1") 1 code;
                (* "file:3:27: error: lexical error: ..." *)
                check Alcotest.int (flags ^ " one error") 1
                  (occurrences ": error:" err);
                check Alcotest.bool (flags ^ " at the literal") true
                  (contains err (Fmt.str "%s:3:" file));
                check Alcotest.bool (flags ^ " no internal error") false
                  (contains err "internal error"))
              [ ""; " --cpu" ]));
  ]

(* [src] prints [expect] under both engines, with the mid-end (the device
   run) and without it (--cpu). *)
let prints_everywhere ~name src expect =
  with_source_file name src (fun file ->
      List.iter
        (fun (engine, cpu) ->
          let code, out, _ =
            cli_capture
              (Fmt.str "../bin/ftnc.exe run %s --interp-engine %s%s"
                 (Filename.quote file) engine
                 (if cpu then " --cpu" else ""))
          in
          let what = Fmt.str "%s%s" engine (if cpu then ", cpu" else "") in
          check Alcotest.int (what ^ ": exit 0") 0 code;
          check Alcotest.bool (what ^ ": prints " ^ expect) true
            (contains out expect))
        [ ("tree", false); ("compiled", false); ("tree", true);
          ("compiled", true) ])

(* f32 folds round as f32 arithmetic does: 2^24 + 1 is 2^24 in f32, so
   the kernel and the host statement compute 0 whether the mid-end folds
   them (the device run) or not (--cpu). *)
let fold_tests =
  let src =
    "program fold\n\
     implicit none\n\
     real :: y(2), z\n\
     integer :: i\n\
     z = (16777216.0 + 1.0) - 16777216.0\n\
     !$omp target parallel do map(from:y)\n\
     do i = 1, 2\n\
     y(i) = (16777216.0 + 1.0) - 16777216.0\n\
     end do\n\
     !$omp end target parallel do\n\
     print *, 'fold', y(1), y(2), z\n\
     end program fold\n"
  in
  [
    tc "f32 constant folds round like f32 arithmetic" (fun () ->
        prints_everywhere ~name:"fold" src "fold 0.000000 0.000000 0.000000";
        let art = Core.Compiler.compile src in
        let llvm = Option.get art.Core.Compiler.llvm_ir in
        check Alcotest.bool "the kernel stores 0" true
          (contains llvm "store float 0.000000e+00");
        check Alcotest.bool "no folded 1.0 in the kernel" false
          (contains llvm "1.000000e+00");
        check Alcotest.bool "no folded 1.0 on the host" false
          (contains (Option.get art.Core.Compiler.host_cpp) "1.0f"));
    (* 0.1 is not an f32 value: as a default real it means 0x1.99999ap-4,
       which the second literal spells out, so the difference is 0 folded
       or not *)
    tc "f32 literals mean their f32 value" (fun () ->
        prints_everywhere ~name:"lit"
          "program lit\n\
           implicit none\n\
           real :: y(2), z\n\
           integer :: i\n\
           z = (0.1 - 0.100000001490116119384765625) * 1.0e9\n\
           !$omp target parallel do map(from:y)\n\
           do i = 1, 2\n\
           y(i) = (0.1 - 0.100000001490116119384765625) * 1.0e9\n\
           end do\n\
           !$omp end target parallel do\n\
           print *, 'lit', y(1), y(2), z\n\
           end program lit\n"
          "lit 0.000000 0.000000 0.000000");
    (* the kernel calls sqrtf and multiplies in float, so y(1) is the f32
       value 3.20713472366333 rounds to *)
    tc "f32 math results round to f32" (fun () ->
        prints_everywhere ~name:"sqrt"
          "program sq\n\
           implicit none\n\
           real :: x(4), y(4)\n\
           integer :: i\n\
           do i = 1, 4\n\
           x(i) = 8.0 / 7.0\n\
           end do\n\
           !$omp target parallel do map(to:x) map(from:y)\n\
           do i = 1, 4\n\
           y(i) = sqrt(x(i)) * 3.0\n\
           end do\n\
           !$omp end target parallel do\n\
           print *, 'sqrt', (y(1) - 3.20713472366333) * 1.0e7\n\
           end program sq\n"
          "sqrt 0.000000");
    (* a logical widened to an integer is 1 when true: the kernel
       zero-extends it, as the interpreters convert it *)
    tc "a logical assigned to an integer is 1 in the kernel too" (fun () ->
        let src =
          "program lg\n\
           implicit none\n\
           integer :: k(4)\n\
           logical :: l\n\
           integer :: i\n\
           l = .true.\n\
           !$omp target parallel do map(to:l) map(from:k)\n\
           do i = 1, 4\n\
           k(i) = l\n\
           end do\n\
           !$omp end target parallel do\n\
           print *, 'lg', k(1), k(4)\n\
           end program lg\n"
        in
        prints_everywhere ~name:"lg" src "lg 1 1";
        let llvm =
          Option.get (Core.Compiler.compile src).Core.Compiler.llvm_ir
        in
        check Alcotest.bool "zext i1" true (contains llvm "zext i1");
        check Alcotest.bool "no sext i1" false (contains llvm "sext i1");
        if Sys.command "llvm-as --version > /dev/null 2>&1" = 0 then begin
          let ll = Filename.temp_file "lg" ".ll" in
          Out_channel.with_open_text ll (fun oc -> output_string oc llvm);
          let rc =
            Sys.command
              (Fmt.str "llvm-as %s -o /dev/null" (Filename.quote ll))
          in
          Sys.remove ll;
          check Alcotest.int "llvm-as accepts the kernel" 0 rc
        end);
  ]

let backend_cli_tests =
  [
    tc "--list-backends prints the registry" (fun () ->
        let code, out, _ = cli_capture "../bin/ftnc.exe --list-backends" in
        check Alcotest.int "exit 0" 0 code;
        check Alcotest.bool "vitis listed" true (contains out "vitis");
        check Alcotest.bool "rv listed" true (contains out "rv");
        check Alcotest.bool "device column" true (contains out "Alveo U280");
        check Alcotest.bool "capability column" true (contains out "dse"));
    tc "unknown --backend errors with a did-you-mean note" (fun () ->
        with_saxpy_file (fun src ->
            let code, _, err =
              cli_capture
                (Fmt.str "../bin/ftnc.exe run %s --backend vitsi"
                   (Filename.quote src))
            in
            check Alcotest.int "exit 1" 1 code;
            check Alcotest.bool "named" true
              (contains err "unknown backend 'vitsi'");
            check Alcotest.bool "did-you-mean" true
              (contains err "did you mean 'vitis'?");
            check Alcotest.bool "no backtrace" false (contains err "Raised at")));
    tc "both backends produce the same program output via the CLI" (fun () ->
        with_saxpy_file (fun src ->
            let run b =
              cli_capture
                (Fmt.str "../bin/ftnc.exe run %s --backend %s"
                   (Filename.quote src) b)
            in
            let vc, vout, _ = run "vitis" in
            let rc, rout, _ = run "rv" in
            check Alcotest.int "vitis exit 0" 0 vc;
            check Alcotest.int "rv exit 0" 0 rc;
            check Alcotest.string "identical output" vout rout));
    tc "--help=plain renders on every command without a cmdliner error"
      (fun () ->
        (* cmdliner checks doc-string markup only when it renders the
           manual, so a bad escape surfaces here and nowhere else *)
        let help args =
          let code, out, err =
            cli_capture (Fmt.str "../bin/ftnc.exe %s --help=plain" args)
          in
          let what = String.trim ("ftnc " ^ args) in
          check Alcotest.int (what ^ " exits 0") 0 code;
          check Alcotest.bool (what ^ ": no cmdliner error") false
            (contains err "cmdliner error");
          out
        in
        (* the subcommands as the top-level manual lists them: in the
           COMMANDS section, a seven-space indent, then the name and its
           synopsis *)
        let rec commands = function
          | "COMMANDS" :: rest -> names rest
          | _ :: rest -> commands rest
          | [] -> []
        and names = function
          | line :: rest when line = "" || line.[0] = ' ' ->
            if String.length line > 7
               && String.sub line 0 7 = "       "
               && line.[7] <> ' '
            then List.hd (String.split_on_char ' ' (String.trim line))
                 :: names rest
            else names rest
          | _ -> []
        in
        let subcommands = commands (String.split_on_char '\n' (help "")) in
        check Alcotest.bool "run is listed" true (List.mem "run" subcommands);
        List.iter (fun sub -> ignore (help sub)) subcommands);
  ]

(* --- the run records ftnc prints: --report and --trace --- *)

let record_cli_tests =
  [
    tc "a retried transfer shows in --report and --trace" (fun () ->
        with_saxpy_file (fun src ->
            let run flags =
              cli_capture
                (Fmt.str "../bin/ftnc.exe run %s%s" (Filename.quote src) flags)
            in
            let _, clean, _ = run "" in
            let code, out, _ =
              run " --fault-plan transfer:nth=1 --report --trace"
            in
            check Alcotest.int "exit 0" 0 code;
            check Alcotest.bool "the clean run's output" true
              (clean <> "" && String.starts_with ~prefix:clean out);
            check Alcotest.bool "the report's faults line" true
              (contains out "faults: 1 injected, 1 retries, 0 cpu fallbacks");
            let rec after_fault = function
              | f :: next :: _
                when String.starts_with ~prefix:"fault    h2d:x " f ->
                Some next
              | _ :: rest -> after_fault rest
              | [] -> None
            in
            match after_fault (String.split_on_char '\n' out) with
            | Some next ->
              check Alcotest.bool "a retry line follows the fault" true
                (String.starts_with ~prefix:"retry    h2d:x " next)
            | None -> Alcotest.fail "no fault line for h2d:x in the trace"));
    tc "--trace-out writes every charge of a run or a job mix" (fun () ->
        (* A SAXPY n=32 run charges three allocations, four transfers
           (388 bytes), a kernel and its launch overhead; the faulted
           run adds the backoff of its retried transfer. *)
        let field k = function
          | Ftn_obs.Json.Obj kvs -> List.assoc_opt k kvs
          | _ -> None
        in
        let str k e =
          match field k e with Some (Ftn_obs.Json.String s) -> s | _ -> ""
        in
        let int k e =
          match field k e with Some (Ftn_obs.Json.Int n) -> n | _ -> -1
        in
        List.iter
          (fun (flags, spans, runs) ->
            with_saxpy_file (fun src ->
                let json = Filename.temp_file "trace" ".json" in
                let code, _, _ =
                  cli_capture
                    (Fmt.str "../bin/ftnc.exe run %s %s --trace-out %s"
                       (Filename.quote src) flags (Filename.quote json))
                in
                let text = In_channel.with_open_bin json In_channel.input_all in
                Sys.remove json;
                check Alcotest.int (flags ^ ": exit 0") 0 code;
                let events =
                  match Ftn_obs.Json.parse text with
                  | Ok j -> (
                    match field "traceEvents" j with
                    | Some (Ftn_obs.Json.List evs) -> evs
                    | _ -> Alcotest.fail "no traceEvents")
                  | Error msg -> Alcotest.fail msg
                in
                let sim = List.filter (fun e -> str "cat" e = "sim") events in
                check Alcotest.int (flags ^ ": one sim event per charge") spans
                  (List.length sim);
                let cu_lanes =
                  List.filter_map
                    (fun e ->
                      match field "args" e with
                      | Some args
                        when str "name" e = "thread_name"
                             && String.starts_with ~prefix:"cu:"
                                  (str "name" args) ->
                        Some (int "tid" e)
                      | _ -> None)
                    events
                in
                let kernels =
                  List.filter
                    (fun e ->
                      field "args" e
                      |> Option.map (str "track")
                      = Some "kernel")
                    sim
                in
                check Alcotest.int (flags ^ ": kernel events") runs
                  (List.length kernels);
                List.iter
                  (fun e ->
                    let tid = int "tid" e in
                    check Alcotest.bool (flags ^ ": on a cu: lane") true
                      (tid >= 10 && List.mem tid cu_lanes))
                  kernels;
                let totals =
                  List.filter_map
                    (fun e ->
                      if str "name" e = "device.bytes_transferred" then
                        Option.map (int "total") (field "args" e)
                      else None)
                    events
                in
                check
                  Alcotest.(option int)
                  (flags ^ ": last bytes total")
                  (Some (388 * runs))
                  (List.nth_opt totals (List.length totals - 1))))
          [ ("--fault-plan transfer:nth=1", 10, 1);
            ("--jobs 3 --devices 2", 27, 3) ]);
  ]

let () =
  Alcotest.run "e2e"
    [
      ("pipeline", e2e_tests);
      ("backend-cli", backend_cli_tests);
      ("record-cli", record_cli_tests);
      ("run-errors", runtime_error_tests);
      ("folding", fold_tests);
    ]
