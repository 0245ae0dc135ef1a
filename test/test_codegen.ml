(* Tests for the code generators: LLVM-IR emission (instructions, phi
   construction, constants), the AMD intrinsic mapping, the LLVM-7
   downgrade and the C++/OpenCL host printer. *)

open Ftn_codegen

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let contains = Astring_like.contains

let saxpy_art =
  lazy (Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:64))

let sgesl_art =
  lazy (Core.Compiler.compile (Ftn_linpack.Fortran_sources.sgesl ~n:16))

let llvm_text art = Option.get (Lazy.force art).Core.Compiler.llvm_ir

let llvm_tests =
  [
    tc "module header targets the AMD backend" (fun () ->
        let t = llvm_text saxpy_art in
        check Alcotest.bool "triple" true (contains t "fpga64-xilinx-none");
        check Alcotest.bool "datalayout" true (contains t "target datalayout"));
    tc "kernel defined with typed pointer params" (fun () ->
        let t = llvm_text saxpy_art in
        check Alcotest.bool "define" true (contains t "define void @saxpy");
        check Alcotest.bool "float ptr" true (contains t "float*"));
    tc "loop becomes phi + icmp + br" (fun () ->
        let t = llvm_text saxpy_art in
        check Alcotest.bool "phi" true (contains t " = phi i64 ");
        check Alcotest.bool "icmp" true (contains t "icmp slt");
        check Alcotest.bool "cond br" true (contains t "br i1 ");
        check Alcotest.bool "back edge" true (contains t "br label %for_cond"));
    tc "memory access via getelementptr" (fun () ->
        let t = llvm_text saxpy_art in
        check Alcotest.bool "gep" true (contains t "getelementptr float, float*");
        check Alcotest.bool "load" true (contains t "load float, float*");
        check Alcotest.bool "store" true (contains t "store float"));
    tc "fastmath arithmetic survives" (fun () ->
        let t = llvm_text saxpy_art in
        check Alcotest.bool "fmul contract" true (contains t "fmul contract float");
        check Alcotest.bool "fadd contract" true (contains t "fadd contract float"));
    tc "intrinsic declarations are variadic after mapping" (fun () ->
        let t = llvm_text saxpy_art in
        check Alcotest.bool "pipeline decl" true
          (contains t "declare void @_ssdm_op_SpecPipeline(...)");
        check Alcotest.bool "variadic call" true
          (contains t "call void (...) @_ssdm_op_SpecPipeline"));
    tc "unroll maps to the Vitis primitive name" (fun () ->
        let t = llvm_text saxpy_art in
        check Alcotest.bool "renamed" true
          (contains t "_ssdm_op_SpecLoopTripCount_Unroll"));
    tc "if statements produce merge blocks (sgesl host has none on device)"
      (fun () ->
        (* the sgesl device kernel is a single loop; use a kernel with a
           conditional to exercise emit_if *)
        let art =
          Core.Compiler.compile
            "program p\nreal :: a(8)\ninteger :: i\n!$omp target parallel do\ndo i = 1, 8\nif (a(i) > 0.0) then\na(i) = a(i) * 2.0\nelse\na(i) = 0.0\nend if\nend do\n!$omp end target parallel do\nend program"
        in
        let t = Option.get art.Core.Compiler.llvm_ir in
        check Alcotest.bool "then label" true (contains t "if_then");
        check Alcotest.bool "merge label" true (contains t "if_merge"));
    tc "float constants fold inline in accepted forms" (fun () ->
        let art =
          Core.Compiler.compile
            "program p\nreal :: a(8)\ninteger :: i\n!$omp target parallel do\ndo i = 1, 8\na(i) = a(i) * 2.5\nend do\n!$omp end target parallel do\nend program"
        in
        let t = Option.get art.Core.Compiler.llvm_ir in
        check Alcotest.bool "inline constant" true
          (contains t "2.500000e+00" || contains t "0x");
        (* no separate constant instruction exists in LLVM *)
        check Alcotest.bool "no mlir.constant" false (contains t "mlir.constant"));
  ]

(* The downgrade as first written, kept as an oracle for the in-place
   version: it takes a String.sub at every byte for each pattern. *)
module Reference_downgrade = struct
  let replace_all ~pat ~rep text =
    let buf = Buffer.create (String.length text) in
    let plen = String.length pat in
    let n = String.length text in
    let count = ref 0 in
    let i = ref 0 in
    while !i < n do
      if !i + plen <= n && String.sub text !i plen = pat then begin
        Buffer.add_string buf rep;
        incr count;
        i := !i + plen
      end
      else begin
        Buffer.add_char buf text.[!i];
        incr i
      end
    done;
    (Buffer.contents buf, !count)

  let rewrites_table =
    [
      ("strip noundef", " noundef", "");
      ("strip mustprogress", "mustprogress ", "");
      ("strip willreturn", "willreturn ", "");
      ("strip nofree", "nofree ", "");
      ("strip nosync", "nosync ", "");
      ("rewrite fneg", " fneg ", " fsub -0.000000e+00, ");
    ]

  let run text =
    let text, rewrites =
      List.fold_left
        (fun (text, acc) (rw_name, pat, rep) ->
          let text, n = replace_all ~pat ~rep text in
          (text, { Llvm_downgrade.rw_name; rw_applied = n } :: acc))
        (text, []) rewrites_table
    in
    if
      String.length text > 0
      &&
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      contains text "freeze "
    then failwith "llvm_downgrade: freeze instruction cannot be downgraded";
    {
      Llvm_downgrade.text = Llvm_downgrade.version_stamp ^ text;
      rewrites = List.rev rewrites;
    }
end

(* Text made of the patterns, pieces of them and random letters, so
   hits abut, overlap and are cut short. A whole "freeze " is rare: it
   makes both sides raise. *)
let downgrade_text_gen =
  let open QCheck.Gen in
  let fragments =
    [ " noundef"; "mustprogress "; "willreturn "; "nofree "; "nosync ";
      " fneg " ]
  in
  let piece =
    frequency
      [
        (16, oneofl fragments);
        ( 12,
          let* f = oneofl fragments in
          let* k = int_range 1 (String.length f) in
          let* from_end = bool in
          return
            (if from_end then String.sub f (String.length f - k) k
             else String.sub f 0 k) );
        ( 16,
          map (String.make 1)
            (oneofl [ 'a'; 'e'; 'f'; 'n'; 'r'; 'z'; ' '; '\n'; '%' ]) );
        (4, map (String.sub "freeze " 0) (int_range 1 6));
        (1, return "freeze ");
      ]
  in
  map (String.concat "") (list_size (int_range 0 40) piece)

let downgrade_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"in-place downgrade matches the reference on random text"
    (QCheck.make downgrade_text_gen ~print:(Printf.sprintf "%S"))
    (fun text ->
      let outcome run =
        match run text with r -> Ok r | exception Failure m -> Error m
      in
      outcome Llvm_downgrade.run = outcome Reference_downgrade.run)

let downgrade_tests =
  [
    tc "stamps the version header" (fun () ->
        let r = Llvm_downgrade.run "define void @f() {\nentry:\n  ret void\n}\n" in
        check Alcotest.bool "stamp" true
          (contains r.Llvm_downgrade.text "LLVM 7 compatible"));
    tc "strips post-7 attributes" (fun () ->
        let r =
          Llvm_downgrade.run
            "define void @f(i32 noundef %x) mustprogress willreturn {\n}"
        in
        check Alcotest.bool "noundef gone" false
          (contains r.Llvm_downgrade.text "noundef");
        check Alcotest.bool "mustprogress gone" false
          (contains r.Llvm_downgrade.text "mustprogress");
        let applied =
          List.filter (fun rw -> rw.Llvm_downgrade.rw_applied > 0) r.Llvm_downgrade.rewrites
        in
        check Alcotest.bool "rewrites recorded" true (List.length applied >= 2));
    tc "rewrites fneg" (fun () ->
        let r = Llvm_downgrade.run "  %1 = fneg float %0\n" in
        check Alcotest.bool "fsub" true
          (contains r.Llvm_downgrade.text "fsub -0.000000e+00"));
    tc "freeze cannot be downgraded" (fun () ->
        try
          ignore (Llvm_downgrade.run "  %1 = freeze i32 %0\n");
          Alcotest.fail "expected failure"
        with Failure _ -> ());
    tc "full pipeline text downgrades cleanly" (fun () ->
        let art = Lazy.force saxpy_art in
        match art.Core.Compiler.llvm_ir_downgraded with
        | Some t -> check Alcotest.bool "stamped" true (contains t "LLVM 7")
        | None -> Alcotest.fail "no downgraded IR");
    QCheck_alcotest.to_alcotest downgrade_matches_reference;
  ]

let host_cpp_text art = Option.get (Lazy.force art).Core.Compiler.host_cpp

(* Both host targets print their bodies through the same code. *)
let targets = [ (Host_cpp.Opencl, "ftn"); (Host_cpp.Rv, "ftn_rv") ]

let trimmed_lines text = List.map String.trim (String.split_on_char '\n' text)

let host_cpp_tests =
  [
    tc "opencl boilerplate present" (fun () ->
        let t = host_cpp_text saxpy_art in
        check Alcotest.bool "include" true (contains t "#include <CL/cl2.hpp>");
        check Alcotest.bool "platform" true (contains t "cl::Platform::get");
        check Alcotest.bool "program binaries" true (contains t "cl::Program::Binaries"));
    tc "device data helpers emitted" (fun () ->
        let t = host_cpp_text saxpy_art in
        check Alcotest.bool "acquire" true (contains t "ftn::data_acquire");
        check Alcotest.bool "release" true (contains t "ftn::data_release");
        check Alcotest.bool "counter map" true (contains t "std::map<std::string, int> counters"));
    tc "buffers, transfers and kernel calls" (fun () ->
        let t = host_cpp_text saxpy_art in
        check Alcotest.bool "alloc" true (contains t "ftn::device_alloc(context, \"x\"");
        check Alcotest.bool "write" true (contains t "enqueueWriteBuffer");
        check Alcotest.bool "read" true (contains t "enqueueReadBuffer");
        check Alcotest.bool "kernel" true (contains t "cl::Kernel");
        check Alcotest.bool "setArg" true (contains t ".setArg(0, ");
        check Alcotest.bool "enqueueTask" true (contains t "enqueueTask");
        check Alcotest.bool "wait" true (contains t ".wait()"));
    tc "host loops become for statements" (fun () ->
        let t = host_cpp_text saxpy_art in
        check Alcotest.bool "for" true (contains t "for (int64_t "));
    tc "sgesl host keeps the outer loop and pivot logic" (fun () ->
        let t = host_cpp_text sgesl_art in
        check Alcotest.bool "if" true (contains t "if (");
        check Alcotest.bool "kernel name" true (contains t "sgesl_bench_kernel"));
    tc "print maps to cout" (fun () ->
        let t = host_cpp_text saxpy_art in
        check Alcotest.bool "cout" true (contains t "std::cout"));
    tc "xclbin name is configurable" (fun () ->
        let art =
          Core.Compiler.compile
            ~options:{ Core.Options.default with Core.Options.xclbin_name = "custom.xclbin" }
            (Ftn_linpack.Fortran_sources.saxpy ~n:8)
        in
        check Alcotest.bool "name used" true
          (contains (Option.get art.Core.Compiler.host_cpp) "custom.xclbin"));
    tc "data_exists is a local read before data_acquire" (fun () ->
        let host =
          (Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:16))
            .Core.Compiler.host
        in
        List.iter
          (fun (target, ns) ->
            let lines = trimmed_lines (Host_cpp.emit_module ~target host) in
            let first p = List.find_index p lines in
            let exists =
              first (fun l ->
                  String.starts_with ~prefix:"bool v" l
                  && contains l (ns ^ "::data_exists(\"x\")"))
            and acquire = first (fun l -> contains l (ns ^ "::data_acquire(\"x\")")) in
            check Alcotest.bool ns true
              (match (exists, acquire) with
              | Some e, Some a -> e < a
              | _ -> false))
          targets);
    tc "an i1 sign-extends to -1 and zero-extends to 1" (fun () ->
        let m =
          Ftn_ir.Ir_parser.parse_module
            "\"builtin.module\"() ({\n\
            \ ^bb0():\n\
            \  \"func.func\"() <{sym_name = @p, function_type = () -> (), \
             ftn.main = true}> ({\n\
            \   ^bb0():\n\
            \    %0 = \"arith.constant\"() <{value = 1 : i1}> : () -> (i1)\n\
            \    %1 = \"arith.extsi\"(%0) : (i1) -> (i32)\n\
            \    %2 = \"arith.extui\"(%0) : (i1) -> (i32)\n\
            \    %3 = \"arith.addi\"(%1, %2) : (i32, i32) -> (i32)\n\
            \    \"func.return\"() : () -> ()\n\
            \  }) : () -> ()\n\
             }) : () -> ()\n"
        in
        let t = Host_cpp.emit_module m in
        check Alcotest.bool "sext" true (contains t "(-(int32_t)(true))");
        check Alcotest.bool "zext" true (contains t "((int32_t)(true))"));
    tc "host loads are locals read before later stores" (fun () ->
        (* t = a(i); a(i) = b(i); b(i) = t *)
        let host =
          (Core.Compiler.compile
             "program swap\n\
              real :: a(2), b(2), t\n\
              integer :: i\n\
              !$omp target parallel do map(from:a, b)\n\
              do i = 1, 2\n\
              a(i) = 1.0\n\
              b(i) = 4.0\n\
              end do\n\
              !$omp end target parallel do\n\
              do i = 1, 2\n\
              t = a(i)\n\
              a(i) = b(i)\n\
              b(i) = t\n\
              end do\n\
              print *, 'r', a(1), a(2), b(1), b(2)\n\
              end program swap\n")
            .Core.Compiler.host
        in
        List.iter
          (fun (target, ns) ->
            (* "float vN = vA[...];" and "vA[...] = vN;" *)
            let load l =
              if String.starts_with ~prefix:"float v" l && contains l "[" then
                Scanf.sscanf_opt l "float %s@ = %s@[" (fun v a -> (a, v))
              else None
            and store l =
              if String.starts_with ~prefix:"v" l && contains l "] = " then
                Scanf.sscanf_opt l "%s@[%_s@] = %s@;" (fun a v -> (a, v))
              else None
            in
            let rec split loads = function
              | l :: rest when store l <> None ->
                (List.rev loads, List.filter_map store (l :: rest))
              | l :: rest -> (
                match load l with
                | Some ld -> split (ld :: loads) rest
                | None -> split loads rest)
              | [] -> (List.rev loads, [])
            in
            match
              split [] (trimmed_lines (Host_cpp.emit_module ~target host))
            with
            | [ (a, ta); (b, tb) ], (a', v1) :: (b', v2) :: _ ->
              check
                Alcotest.(list (pair string string))
                ns
                [ (a, tb); (b, ta) ]
                [ (a', v1); (b', v2) ]
            | loads, _ ->
              Alcotest.failf "%s: %d loads before the first store" ns
                (List.length loads))
          targets);
  ]

(* Compile the generated host programs with a real C++ compiler against a
   stub OpenCL header (syntax/type checking only), and assemble the emitted
   kernels with llvm-as. Each check is skipped when its tool is not on
   PATH. *)
let available tool =
  lazy (Sys.command (tool ^ " --version > /dev/null 2>&1") = 0)

let gpp_available = available "g++"
let llvm_as_available = available "llvm-as"

(* Alcotest chdirs into its log directory while running tests; resolve the
   stub include path eagerly at module initialisation. Under `dune runtest`
   the stub is materialised next to the executable; under `dune exec` the
   cwd is the project root. *)
let cl_stub_dir =
  let cwd = Sys.getcwd () in
  let candidates =
    [ Filename.concat cwd "cl_stub";
      Filename.concat cwd "test/cl_stub";
      Filename.concat (Filename.dirname Sys.executable_name) "cl_stub" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Filename.concat cwd "cl_stub"

(* Write [text] to a temporary file and run [cmd] on its quoted path;
   fail with the tool's stderr when it exits non-zero. *)
let tool_check ~what ~suffix cmd text =
  let path = Filename.temp_file "ftn_check" suffix in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  let err_path = path ^ ".err" in
  let rc =
    Sys.command
      (Printf.sprintf "%s 2> %s" (cmd (Filename.quote path))
         (Filename.quote err_path))
  in
  let err = In_channel.with_open_text err_path In_channel.input_all in
  Sys.remove path;
  Sys.remove err_path;
  if rc <> 0 then
    Alcotest.failf "%s:\n%s" what
      (String.sub err 0 (min 2000 (String.length err)))

let syntax_check_cpp name text =
  if Lazy.force gpp_available then
    tool_check
      ~what:(Fmt.str "g++ rejected %s host code" name)
      ~suffix:".cpp"
      (Printf.sprintf "g++ -std=c++17 -fsyntax-only -I %s %s"
         (Filename.quote cl_stub_dir))
      text

let llvm_as_check name text =
  if Lazy.force llvm_as_available then
    tool_check
      ~what:(Fmt.str "llvm-as rejected %s" name)
      ~suffix:".ll"
      (Printf.sprintf "llvm-as %s -o /dev/null")
      text

(* The emitted LLVM and its LLVM-7 form both assemble. *)
let llvm_as_check_art name (art : Core.Compiler.artifacts) =
  llvm_as_check name (Option.get art.Core.Compiler.llvm_ir);
  llvm_as_check (name ^ " (LLVM 7)")
    (Option.get art.Core.Compiler.llvm_ir_downgraded)

let gpp_tests =
  [
    tc "generated saxpy host code is valid C++" (fun () ->
        syntax_check_cpp "saxpy" (host_cpp_text saxpy_art));
    tc "generated sgesl host code is valid C++" (fun () ->
        syntax_check_cpp "sgesl" (host_cpp_text sgesl_art));
    tc "generated data-regions host code is valid C++" (fun () ->
        let art =
          Core.Compiler.compile (Ftn_linpack.Fortran_sources.data_regions ~n:16)
        in
        syntax_check_cpp "regions" (Option.get art.Core.Compiler.host_cpp));
    tc "generated reduction host code is valid C++" (fun () ->
        let art =
          Core.Compiler.compile
            (Ftn_linpack.Fortran_sources.dot_product ~n:32 ~simdlen:4)
        in
        syntax_check_cpp "dot" (Option.get art.Core.Compiler.host_cpp));
    tc "real comparisons print C++ that agrees on a NaN" (fun () ->
        (* une is C++ [!=]; one, which is false on a NaN, is not *)
        let m =
          Ftn_ir.Ir_parser.parse_module
            "\"builtin.module\"() ({\n\
            \ ^bb0():\n\
            \  \"func.func\"() <{sym_name = @p, function_type = () -> (), \
             ftn.main = true}> ({\n\
            \   ^bb0():\n\
            \    %0 = \"arith.constant\"() <{value = 0.0 : f32}> : () -> (f32)\n\
            \    %1 = \"arith.divf\"(%0, %0) : (f32, f32) -> (f32)\n\
            \    %2 = \"arith.constant\"() <{value = 1.0 : f32}> : () -> (f32)\n\
            \    %3 = \"arith.cmpf\"(%1, %2) <{predicate = \"one\"}> : \
             (f32, f32) -> (i1)\n\
            \    %4 = \"arith.cmpf\"(%1, %2) <{predicate = \"une\"}> : \
             (f32, f32) -> (i1)\n\
            \    %5 = \"arith.andi\"(%3, %4) : (i1, i1) -> (i1)\n\
            \    \"scf.if\"(%5) ({\n\
            \     ^bb0():\n\
            \      \"scf.yield\"() : () -> ()\n\
            \    }) : (i1) -> ()\n\
            \    \"func.return\"() : () -> ()\n\
            \  }) : () -> ()\n\
             }) : () -> ()\n"
        in
        let t = Host_cpp.emit_module m in
        check Alcotest.bool "one" true (contains t "std::islessgreater(");
        check Alcotest.bool "une" true (contains t ") != (");
        syntax_check_cpp "cmpf" t);
  ]

let llvm_as_tests =
  [
    tc "the corpus's kernels assemble before and after the downgrade"
      (fun () ->
        List.iter
          (fun (name, src) -> llvm_as_check_art name (Core.Compiler.compile src))
          Ftn_linpack.Fortran_sources.
            [
              ("saxpy", saxpy ~n:16);
              ("sgesl", sgesl ~n:16);
              ("dot_product", dot_product ~n:32 ~simdlen:4);
              ("data_regions", data_regions ~n:16);
              ("many_kernels", many_kernels ~kernels:4 ~n:64);
              ("stencil", stencil ~n:8 ~steps:2);
            ]);
    tc "f32 literals print as f32 values LLVM reads back exactly" (fun () ->
        (* 0.1 is not an f32 value; 12345678.0 is, but not in 7 digits *)
        let art =
          Core.Compiler.compile
            "program lit\n\
             real :: y(8)\n\
             integer :: i\n\
             !$omp target parallel do map(from:y)\n\
             do i = 1, 8\n\
             y(i) = 0.1 * real(i) + 12345678.0\n\
             end do\n\
             !$omp end target parallel do\n\
             print *, y(8)\n\
             end program lit\n"
        in
        let t = Option.get art.Core.Compiler.llvm_ir in
        check Alcotest.bool "0.1 rounded to f32" true
          (contains t "float 0x3FB99999A0000000");
        check Alcotest.bool "12345678.0 exact" true
          (contains t "0x41678C29C0000000");
        llvm_as_check_art "literal kernel" art);
  ]

let () =
  Alcotest.run "codegen"
    [
      ("llvm-ir", llvm_tests);
      ("downgrade", downgrade_tests);
      ("host-cpp", host_cpp_tests);
      ("host-cpp-gpp", gpp_tests);
      ("llvm-as", llvm_as_tests);
    ]
