(* Tests for the Fortran frontend: lexer, OpenMP directive parser, source
   parser, semantic analysis and FIR/core lowering. *)

open Ftn_frontend
open Ftn_ir

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let toks src =
  List.map (fun s -> s.Src_lexer.tok) (Src_lexer.tokenize src)

(* --- lexer --- *)

let lexer_tests =
  [
    tc "keywords and identifiers lowercase" (fun () ->
        match toks "Program FOO" with
        | [ IDENT "program"; IDENT "foo"; NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    tc "numbers" (fun () ->
        (match toks "42 3.5 1.0e3 2d0 1." with
        | [ INT 42; REAL (3.5, false); REAL (1000.0, false);
            REAL (2.0, true); REAL (1.0, false); NEWLINE; EOF ] ->
          ()
        | _ -> Alcotest.fail "number tokens");
        match toks "1.e2" with
        | [ REAL (100.0, false); NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "1.e2");
    tc "operators" (fun () ->
        match toks "a ** b /= c <= d .and. .not. e" with
        | [ IDENT "a"; POW; IDENT "b"; NE; IDENT "c"; LE; IDENT "d"; AND;
            NOT; IDENT "e"; NEWLINE; EOF ] ->
          ()
        | _ -> Alcotest.fail "operator tokens");
    tc "dot operators legacy forms" (fun () ->
        match toks "a .eq. b .lt. c" with
        | [ IDENT "a"; EQ; IDENT "b"; LT; IDENT "c"; NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "legacy relational tokens");
    tc "comments stripped, strings kept" (fun () ->
        match toks "x = 'a ! not comment' ! real comment" with
        | [ IDENT "x"; ASSIGN; STRING "a ! not comment"; NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "comment handling");
    tc "continuation lines join" (fun () ->
        match toks "x = 1 + &\n  2" with
        | [ IDENT "x"; ASSIGN; INT 1; PLUS; INT 2; NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "continuation");
    tc "leading ampersand continuation" (fun () ->
        match toks "x = 1 + &\n  & 2" with
        | [ IDENT "x"; ASSIGN; INT 1; PLUS; INT 2; NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "leading-& continuation");
    tc "omp sentinel" (fun () ->
        match toks "!$omp target map(to:x)" with
        | [ OMP "target map(to:x)"; NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "omp sentinel");
    tc "omp continuation" (fun () ->
        match toks "!$omp target &\n!$omp& map(to:x)" with
        | [ OMP "target map(to:x)"; NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "omp continuation");
    tc "blank and comment-only lines vanish" (fun () ->
        match toks "\n! only a comment\n\nx = 1" with
        | [ IDENT "x"; ASSIGN; INT 1; NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "blank handling");
    tc "unterminated string raises" (fun () ->
        (try
           ignore (toks "x = 'oops");
           Alcotest.fail "expected error"
         with Src_lexer.Lex_error (_, loc) ->
           check Alcotest.int "line" 1 loc.Ftn_diag.Loc.line));
    tc "line numbers track" (fun () ->
        let spanned = Src_lexer.tokenize "x = 1\ny = 2" in
        let line_of tok =
          List.find_map
            (fun s -> if s.Src_lexer.tok = tok then Some s.Src_lexer.line else None)
            spanned
        in
        check (Alcotest.option Alcotest.int) "x" (Some 1)
          (line_of (Src_lexer.IDENT "x"));
        check (Alcotest.option Alcotest.int) "y" (Some 2)
          (line_of (Src_lexer.IDENT "y")));
    tc "integer literals beyond the default kind raise" (fun () ->
        (try
           ignore (toks "k = 1\nk = 3000000000");
           Alcotest.fail "expected error"
         with Src_lexer.Lex_error (_, loc) ->
           check Alcotest.int "line" 2 loc.Ftn_diag.Loc.line);
        match toks "k = 2147483647" with
        | [ IDENT "k"; ASSIGN; INT 2147483647; NEWLINE; EOF ] -> ()
        | _ -> Alcotest.fail "largest default integer");
  ]

(* --- OpenMP directive parser --- *)

let omp_tests =
  [
    tc "target with map clauses" (fun () ->
        match Omp_parser.parse "target map(to:x, y) map(from: z)" with
        | Omp_parser.Target { clauses; combined_loop = None } -> (
          match clauses with
          | [ Ast.Cl_map (Ast.Map_to, [ "x"; "y" ]);
              Ast.Cl_map (Ast.Map_from, [ "z" ]) ] ->
            ()
          | _ -> Alcotest.fail "clauses")
        | _ -> Alcotest.fail "directive");
    tc "default map type is tofrom" (fun () ->
        match Omp_parser.parse "target data map(a)" with
        | Omp_parser.Target_data [ Ast.Cl_map (Ast.Map_tofrom, [ "a" ]) ] -> ()
        | _ -> Alcotest.fail "default tofrom");
    tc "combined target parallel do simd" (fun () ->
        match Omp_parser.parse "target parallel do simd simdlen(10) map(tofrom:y)" with
        | Omp_parser.Target { clauses; combined_loop = Some { c_simd = true } } ->
          let maps, rest = Omp_parser.split_combined_clauses clauses in
          check Alcotest.int "one map" 1 (List.length maps);
          (match rest with
          | [ Ast.Cl_simdlen 10 ] -> ()
          | _ -> Alcotest.fail "loop clauses")
        | _ -> Alcotest.fail "combined");
    tc "parallel do without simd" (fun () ->
        match Omp_parser.parse "parallel do" with
        | Omp_parser.Parallel_do { simd = false; clauses = [] } -> ()
        | _ -> Alcotest.fail "parallel do");
    tc "reduction clause" (fun () ->
        (match Omp_parser.parse "parallel do reduction(+:sum)" with
        | Omp_parser.Parallel_do
            { clauses = [ Ast.Cl_reduction (Ast.Red_add, [ "sum" ]) ]; _ } ->
          ()
        | _ -> Alcotest.fail "+ reduction");
        match Omp_parser.parse "parallel do reduction(max:m)" with
        | Omp_parser.Parallel_do
            { clauses = [ Ast.Cl_reduction (Ast.Red_max, [ "m" ]) ]; _ } ->
          ()
        | _ -> Alcotest.fail "max reduction");
    tc "collapse clause" (fun () ->
        match Omp_parser.parse "parallel do collapse(2)" with
        | Omp_parser.Parallel_do { clauses = [ Ast.Cl_collapse 2 ]; _ } -> ()
        | _ -> Alcotest.fail "collapse");
    tc "enter and exit data" (fun () ->
        (match Omp_parser.parse "target enter data map(to:a)" with
        | Omp_parser.Target_enter_data _ -> ()
        | _ -> Alcotest.fail "enter");
        match Omp_parser.parse "target exit data map(from:a)" with
        | Omp_parser.Target_exit_data _ -> ()
        | _ -> Alcotest.fail "exit");
    tc "target update" (fun () ->
        match Omp_parser.parse "target update from(a)" with
        | Omp_parser.Target_update [ Ast.Cl_from [ "a" ] ] -> ()
        | _ -> Alcotest.fail "update");
    tc "end directives" (fun () ->
        (match Omp_parser.parse "end target parallel do simd" with
        | Omp_parser.End_directive "target parallel do simd" -> ()
        | _ -> Alcotest.fail "end combined");
        match Omp_parser.parse "end target data" with
        | Omp_parser.End_directive "target data" -> ()
        | _ -> Alcotest.fail "end data");
    tc "unknown clause rejected" (fun () ->
        try
          ignore (Omp_parser.parse "target nonsense(3)");
          Alcotest.fail "expected error"
        with Omp_parser.Omp_error _ -> ());
    tc "unsupported directive rejected" (fun () ->
        try
          ignore (Omp_parser.parse "teams distribute");
          Alcotest.fail "expected error"
        with Omp_parser.Omp_error _ -> ());
  ]

(* --- source parser --- *)

let parse1 src =
  match Src_parser.parse src with
  | [ u ] -> u
  | _ -> Alcotest.fail "expected one program unit"

let parser_tests =
  [
    tc "program with declarations" (fun () ->
        let u = parse1 "program p\ninteger :: i\nreal :: x(10)\nend program p" in
        check Alcotest.string "name" "p" u.Ast.u_name;
        check Alcotest.int "decls" 2 (List.length u.Ast.u_decls);
        let x = List.nth u.Ast.u_decls 1 in
        check Alcotest.int "dims" 1 (List.length x.Ast.d_dims));
    tc "subroutine with params and intents" (fun () ->
        let u =
          parse1
            "subroutine s(a, n)\ninteger, intent(in) :: n\nreal, intent(inout) :: a(n)\nend subroutine s"
        in
        check Alcotest.bool "kind" true (u.Ast.u_kind = Ast.Subroutine);
        check (Alcotest.list Alcotest.string) "params" [ "a"; "n" ] u.Ast.u_params;
        let a = List.nth u.Ast.u_decls 1 in
        check Alcotest.bool "intent" true (a.Ast.d_intent = Ast.Intent_inout));
    tc "function unit" (fun () ->
        let u = parse1 "real function f(x)\nreal :: x, f\nf = x * 2.0\nend function f" in
        check Alcotest.bool "kind" true (u.Ast.u_kind = Ast.Function Ast.Ty_real));
    tc "parameter declaration" (fun () ->
        let u = parse1 "program p\ninteger, parameter :: n = 4 * 25\nend program" in
        match (List.hd u.Ast.u_decls).Ast.d_parameter with
        | Some (Ast.Binop (Ast.Mul, Ast.Int_lit 4, Ast.Int_lit 25)) -> ()
        | _ -> Alcotest.fail "parameter expr");
    tc "dimension attribute" (fun () ->
        let u = parse1 "program p\nreal, dimension(8) :: a, b\nend program" in
        check Alcotest.int "two arrays" 2 (List.length u.Ast.u_decls);
        List.iter
          (fun d -> check Alcotest.int "rank" 1 (List.length d.Ast.d_dims))
          u.Ast.u_decls);
    tc "double precision" (fun () ->
        let u = parse1 "program p\ndouble precision :: d\nend program" in
        check Alcotest.bool "double" true
          ((List.hd u.Ast.u_decls).Ast.d_type = Ast.Ty_double));
    tc "do loop with step" (fun () ->
        let u =
          parse1 "program p\ninteger :: i\ndo i = 1, 10, 2\nend do\nend program"
        in
        match u.Ast.u_body with
        | [ { Ast.s_kind = Ast.Do { do_step = Some (Ast.Int_lit 2); _ }; _ } ] -> ()
        | _ -> Alcotest.fail "do step");
    tc "if elseif else chain" (fun () ->
        let u =
          parse1
            "program p\ninteger :: i\ni = 0\nif (i > 0) then\ni = 1\nelse if (i < 0) then\ni = 2\nelse\ni = 3\nend if\nend program"
        in
        match List.nth u.Ast.u_body 1 with
        | { Ast.s_kind = Ast.If (arms, else_body); _ } ->
          check Alcotest.int "arms" 2 (List.length arms);
          check Alcotest.int "else" 1 (List.length else_body)
        | _ -> Alcotest.fail "if chain");
    tc "one-line if" (fun () ->
        let u =
          parse1 "program p\ninteger :: i\ni = 0\nif (i > 0) i = 1\nend program"
        in
        match List.nth u.Ast.u_body 1 with
        | { Ast.s_kind = Ast.If ([ (_, [ _ ]) ], []); _ } -> ()
        | _ -> Alcotest.fail "one-line if");
    tc "operator precedence" (fun () ->
        let u = parse1 "program p\nreal :: x\nx = 1.0 + 2.0 * 3.0 ** 2\nend program" in
        match (List.hd u.Ast.u_body).Ast.s_kind with
        | Ast.Assign
            (_, Ast.Binop (Ast.Add, _, Ast.Binop (Ast.Mul, _, Ast.Binop (Ast.Pow, _, _))))
          ->
          ()
        | _ -> Alcotest.fail "precedence");
    tc "unary minus binds below power" (fun () ->
        let u = parse1 "program p\nreal :: x\nx = -2.0 ** 2\nend program" in
        match (List.hd u.Ast.u_body).Ast.s_kind with
        | Ast.Assign (_, Ast.Unop (Ast.Neg, Ast.Binop (Ast.Pow, _, _))) -> ()
        | _ -> Alcotest.fail "neg-pow");
    tc "call statement" (fun () ->
        let u = parse1 "program p\ncall sub(1, 2)\nend program" in
        match (List.hd u.Ast.u_body).Ast.s_kind with
        | Ast.Call ("sub", [ _; _ ]) -> ()
        | _ -> Alcotest.fail "call");
    tc "print statement with strings" (fun () ->
        let u = parse1 "program p\nprint *, 'hi', 42\nend program" in
        match (List.hd u.Ast.u_body).Ast.s_kind with
        | Ast.Print [ Ast.Intrinsic ("__str", _); Ast.Int_lit 42 ] -> ()
        | _ -> Alcotest.fail "print");
    tc "target region pairs with end directive" (fun () ->
        let u =
          parse1
            "program p\nreal :: a(4)\ninteger :: i\n!$omp target map(tofrom:a)\ndo i = 1, 4\na(i) = 0.0\nend do\n!$omp end target\nend program"
        in
        match List.hd u.Ast.u_body with
        | { Ast.s_kind = Ast.Omp_target (_, [ { Ast.s_kind = Ast.Do _; _ } ]); _ } -> ()
        | _ -> Alcotest.fail "target region");
    tc "missing end target is an error" (fun () ->
        try
          ignore
            (Src_parser.parse "program p\n!$omp target\nend program");
          Alcotest.fail "expected error"
        with Src_parser.Parse_error _ -> ());
    tc "combined construct wraps loop" (fun () ->
        let u =
          parse1
            "program p\nreal :: y(4)\ninteger :: i\n!$omp target parallel do simd simdlen(4)\ndo i = 1, 4\ny(i) = 1.0\nend do\n!$omp end target parallel do simd\nend program"
        in
        match List.hd u.Ast.u_body with
        | { Ast.s_kind =
              Ast.Omp_target
                (_, [ { Ast.s_kind = Ast.Omp_parallel_do pd; _ } ]); _ } ->
          check Alcotest.bool "simd" true pd.Ast.pd_simd
        | _ -> Alcotest.fail "combined");
    tc "multiple program units" (fun () ->
        let units =
          Src_parser.parse
            "subroutine a\nend subroutine\nprogram main\ncall a\nend program"
        in
        check Alcotest.int "two units" 2 (List.length units));
    tc "unknown statement errors with line number" (fun () ->
        try
          ignore (Src_parser.parse "program p\n42\nend program");
          Alcotest.fail "expected error"
        with Src_parser.Parse_error (_, loc) ->
          check Alcotest.int "line" 2 loc.Ftn_diag.Loc.line);
  ]

(* --- sema --- *)

let check_src src = Sema.check (Src_parser.parse src)

let sema_err src =
  try
    ignore (check_src src);
    Alcotest.fail "expected semantic error"
  with Sema.Sema_error _ -> ()

let sema_tests =
  [
    tc "undeclared variable" (fun () ->
        sema_err "program p\nx = 1.0\nend program");
    tc "array rank mismatch" (fun () ->
        sema_err "program p\nreal :: a(4, 4)\na(1) = 0.0\nend program");
    tc "non-integer subscript" (fun () ->
        sema_err "program p\nreal :: a(4)\na(1.5) = 0.0\nend program");
    tc "assignment to parameter" (fun () ->
        sema_err "program p\ninteger, parameter :: n = 3\nn = 4\nend program");
    tc "do variable must be integer scalar" (fun () ->
        sema_err "program p\nreal :: x\ndo x = 1, 3\nend do\nend program");
    tc "logical condition required" (fun () ->
        sema_err "program p\ninteger :: i\nif (i + 1) then\nend if\nend program");
    tc "arith on logicals rejected" (fun () ->
        sema_err "program p\nlogical :: l\ninteger :: i\ni = l + 1\nend program");
    tc "duplicate declaration" (fun () ->
        sema_err "program p\ninteger :: i\nreal :: i\nend program");
    tc "unknown function" (fun () ->
        sema_err "program p\nreal :: x\nx = mystery(1.0)\nend program");
    tc "intrinsics resolve" (fun () ->
        match check_src "program p\nreal :: x\nx = sqrt(abs(-2.0))\nend program" with
        | [ info ] -> (
          match (List.hd info.Sema.ui_unit.Ast.u_body).Ast.s_kind with
          | Ast.Assign (_, Ast.Intrinsic ("sqrt", [ Ast.Intrinsic ("abs", _) ])) -> ()
          | _ -> Alcotest.fail "intrinsic resolution")
        | _ -> Alcotest.fail "unit count");
    tc "array reference beats intrinsic namespace" (fun () ->
        (* a variable named max used as an array *)
        match
          check_src "program p\nreal :: max(3)\nreal :: x\nx = max(1)\nend program"
        with
        | [ info ] -> (
          match (List.nth info.Sema.ui_unit.Ast.u_body 0).Ast.s_kind with
          | Ast.Assign (_, Ast.Index ("max", _)) -> ()
          | _ -> Alcotest.fail "array wins")
        | _ -> Alcotest.fail "unit count");
    tc "parameter constants fold into dims" (fun () ->
        match
          check_src "program p\ninteger, parameter :: n = 2 + 2\nreal :: a(n)\nend program"
        with
        | [ info ] -> (
          match (Sema.Env.find "a" info.Sema.ui_symbols).Sema.sym_dims with
          | [ Sema.Dim_const 4 ] -> ()
          | _ -> Alcotest.fail "folded dim")
        | _ -> Alcotest.fail "unit count");
    tc "dummy extent stays dynamic" (fun () ->
        match
          check_src
            "subroutine s(a, n)\ninteger :: n\nreal :: a(n)\nend subroutine"
        with
        | [ info ] -> (
          match (Sema.Env.find "a" info.Sema.ui_symbols).Sema.sym_dims with
          | [ Sema.Dim_expr _ ] -> ()
          | _ -> Alcotest.fail "dynamic dim")
        | _ -> Alcotest.fail "unit count");
    tc "omp clause vars must exist" (fun () ->
        sema_err
          "program p\nreal :: a(4)\ninteger :: i\n!$omp target parallel do map(to:zz)\ndo i = 1, 4\na(i) = 0.0\nend do\n!$omp end target parallel do\nend program");
    tc "constants folded beyond the default integer kind raise" (fun () ->
        (* 2 ** 70 wraps back to 0 in 63 bits: every step is checked *)
        List.iter
          (fun decl ->
            try
              let src = "program p\ninteger :: i\n" ^ decl ^ "\nend program" in
              ignore (check_src src);
              Alcotest.failf "expected an error for %s" decl
            with Sema.Sema_error (_, loc) ->
              check Alcotest.int decl 3 loc.Ftn_diag.Loc.line)
          [
            "integer, parameter :: n = 50000 * 100000";
            "integer, parameter :: n = 2 ** 70";
            "real :: a(50000 * 100000)";
          ]);
    tc "the default integer kind's bounds still fold" (fun () ->
        match
          check_src
            "program p\ninteger, parameter :: hi = 2147483647\ninteger, \
             parameter :: lo = -2147483647 - 1\nend program"
        with
        | [ info ] ->
          List.iter
            (fun (name, v) ->
              check Alcotest.bool name true
                ((Sema.Env.find name info.Sema.ui_symbols).Sema.sym_constant
                = Some (Ast.Int_lit v)))
            [ ("hi", 2147483647); ("lo", -2147483648) ]
        | _ -> Alcotest.fail "unit count");
  ]

(* --- lowering --- *)

let lowering_tests =
  [
    tc "fir module structure" (fun () ->
        let m = Frontend.to_fir "program p\nreal :: x\nx = 1.0\nend program" in
        Alcotest.(check bool) "is module" true (Op.is_module m);
        Alcotest.(check int) "one function" 1
          (Op.count (fun o -> Op.name o = "func.func") m);
        Alcotest.(check bool) "has alloca" true
          (Op.exists (fun o -> Op.name o = "fir.alloca") m));
    tc "core module verifies" (fun () ->
        let m =
          Frontend.to_core_verified
            "program p\nreal :: a(8)\ninteger :: i\ndo i = 1, 8\na(i) = real(i)\nend do\nend program"
        in
        Alcotest.(check bool) "no fir left" false
          (Op.exists (fun o -> Op.dialect o = "fir") m);
        Alcotest.(check bool) "has scf.for" true
          (Op.exists (fun o -> Op.name o = "scf.for") m));
    tc "inclusive bounds become exclusive" (fun () ->
        let m =
          Frontend.to_core
            "program p\ninteger :: i, s\ns = 0\ndo i = 2, 5\ns = s + i\nend do\nend program"
        in
        (* loop must run 4 times: 2,3,4,5 *)
        let fors = Op.collect (fun o -> Op.name o = "scf.for") m in
        Alcotest.(check int) "one loop" 1 (List.length fors));
    tc "explicit and implicit maps" (fun () ->
        let m =
          Frontend.to_core
            "program p\nreal :: x(4), y(4)\nreal :: a\ninteger :: i\na = 2.0\n!$omp target parallel do map(to:x) map(tofrom:y)\ndo i = 1, 4\ny(i) = y(i) + a * x(i)\nend do\n!$omp end target parallel do\nend program"
        in
        let maps = Op.collect (fun o -> Op.name o = "omp.map_info") m in
        Alcotest.(check int) "three maps" 3 (List.length maps);
        let implicit =
          List.filter (fun o -> Op.bool_attr o "implicit" = Some true) maps
        in
        Alcotest.(check int) "one implicit" 1 (List.length implicit);
        Alcotest.(check (option string)) "implicit is a" (Some "a")
          (Op.string_attr (List.hd implicit) "var_name"));
    tc "loop variable is private, not mapped" (fun () ->
        let m =
          Frontend.to_core
            "program p\nreal :: y(4)\ninteger :: i\n!$omp target parallel do\ndo i = 1, 4\ny(i) = 1.0\nend do\n!$omp end target parallel do\nend program"
        in
        let maps = Op.collect (fun o -> Op.name o = "omp.map_info") m in
        Alcotest.(check bool) "i not mapped" false
          (List.exists (fun o -> Op.string_attr o "var_name" = Some "i") maps));
    tc "scalars map as to, arrays as tofrom" (fun () ->
        let m =
          Frontend.to_core
            "program p\nreal :: y(4)\nreal :: c\ninteger :: i\nc = 3.0\n!$omp target parallel do\ndo i = 1, 4\ny(i) = c\nend do\n!$omp end target parallel do\nend program"
        in
        let maps = Op.collect (fun o -> Op.name o = "omp.map_info") m in
        let find name =
          List.find (fun o -> Op.string_attr o "var_name" = Some name) maps
        in
        Alcotest.(check (option string)) "c to" (Some "to")
          (Op.string_attr (find "c") "map_type");
        Alcotest.(check (option string)) "y tofrom" (Some "tofrom")
          (Op.string_attr (find "y") "map_type"));
    tc "private keeps the variable off the device" (fun () ->
        let m =
          Frontend.to_fir
            "program p\nreal :: y(8)\nreal :: t\ninteger :: i\nt = -1.0\n!$omp target parallel do private(t)\ndo i = 1, 8\nt = real(i)\ny(i) = t\nend do\n!$omp end target parallel do\nprint *, t\nend program"
        in
        let maps = Op.collect (fun o -> Op.name o = "omp.map_info") m in
        Alcotest.(check bool) "t not mapped" false
          (List.exists (fun o -> Op.string_attr o "var_name" = Some "t") maps);
        (* and the host copy survives the kernel *)
        let out, _ = Ftn_runtime.Executor.run_cpu (Frontend.to_core
          "program p\nreal :: y(8)\nreal :: t\ninteger :: i\nt = -1.0\n!$omp target parallel do private(t)\ndo i = 1, 8\nt = real(i)\ny(i) = t\nend do\n!$omp end target parallel do\nprint *, y(8)\nend program") in
        Alcotest.(check bool) "kernel used private" true
          (Astring_like.contains out "8.0"));
    tc "firstprivate maps to, never back" (fun () ->
        let m =
          Frontend.to_fir
            "program p\nreal :: y(8)\nreal :: c\ninteger :: i\nc = 3.0\n!$omp target parallel do firstprivate(c)\ndo i = 1, 8\nc = c + 1.0\ny(i) = c\nend do\n!$omp end target parallel do\nend program"
        in
        let maps = Op.collect (fun o -> Op.name o = "omp.map_info") m in
        let c_map =
          List.find (fun o -> Op.string_attr o "var_name" = Some "c") maps
        in
        Alcotest.(check (option string)) "to despite write" (Some "to")
          (Op.string_attr c_map "map_type"));
    tc "reduction clause carried into IR" (fun () ->
        let m =
          Frontend.to_core
            "program p\nreal :: x(4)\nreal :: s\ninteger :: i\ns = 0.0\n!$omp target parallel do reduction(+:s)\ndo i = 1, 4\ns = s + x(i)\nend do\n!$omp end target parallel do\nend program"
        in
        let pd =
          List.hd (Op.collect (fun o -> Op.name o = "omp.parallel_do") m)
        in
        match Op.find_attr pd "reductions" with
        | Some (Attr.Array [ Attr.String "add" ]) -> ()
        | _ -> Alcotest.fail "reduction attr");
    tc "column-major subscripts reverse" (fun () ->
        (* a(i, j) with shape (2, 3) becomes memref<3x2xf32>[j-1, i-1] *)
        let m =
          Frontend.to_core
            "program p\nreal :: a(2, 3)\na(1, 2) = 5.0\nend program"
        in
        let allocas = Op.collect (fun o -> Op.name o = "memref.alloca") m in
        let shapes =
          List.filter_map
            (fun o ->
              match Value.ty (Op.result1 o) with
              | Types.Memref { shape = [ Types.Static x; Types.Static y ]; _ } ->
                Some (x, y)
              | _ -> None)
            allocas
        in
        Alcotest.(check bool) "reversed shape" true (List.mem (3, 2) shapes));
    tc "intrinsic lowering" (fun () ->
        let m =
          Frontend.to_core
            "program p\nreal :: x\nx = sqrt(2.0) + max(1.0, 2.0)\nend program"
        in
        Alcotest.(check bool) "sqrt" true
          (Op.exists (fun o -> Op.name o = "math.sqrt") m);
        Alcotest.(check bool) "max" true
          (Op.exists (fun o -> Op.name o = "arith.maximumf") m));
    tc "x**2 expands to multiply" (fun () ->
        let m =
          Frontend.to_core "program p\nreal :: x\nx = 2.0\nx = x ** 2\nend program"
        in
        Alcotest.(check bool) "no powf" false
          (Op.exists (fun o -> Op.name o = "math.powf") m);
        Alcotest.(check bool) "mulf" true
          (Op.exists (fun o -> Op.name o = "arith.mulf") m));
    tc "print lowers to runtime calls" (fun () ->
        let m = Frontend.to_core "program p\nprint *, 'x', 1\nend program" in
        let calls = Op.collect (fun o -> Op.name o = "func.call") m in
        let callees = List.filter_map (fun o -> Op.symbol_attr o "callee") calls in
        Alcotest.(check bool) "str" true (List.mem "ftn_print_str" callees);
        Alcotest.(check bool) "i32" true (List.mem "ftn_print_i32" callees);
        Alcotest.(check bool) "newline" true
          (List.mem "ftn_print_newline" callees));
    tc "frontend errors are located diagnostics" (fun () ->
        (try
           ignore (Frontend.to_core "program p\nx = 1\nend program");
           Alcotest.fail "expected Diag_failure"
         with Ftn_diag.Diag.Diag_failure [ d ] ->
           check Alcotest.int "line" 2 d.Ftn_diag.Diag.loc.Ftn_diag.Loc.line);
        try
          ignore (Frontend.to_core "program p\nend");
          ()
        with Ftn_diag.Diag.Diag_failure _ -> ());
    tc "user-defined function calls resolve and execute" (fun () ->
        let src =
          "real function square(v)\nreal :: v, square\nsquare = v * v\nend function\nprogram p\nreal :: t\nt = square(3.0) + square(2.0)\nprint *, t\nend program"
        in
        let m = Frontend.to_core_verified src in
        Alcotest.(check bool) "calls present" true
          (Op.exists
             (fun o ->
               Op.name o = "func.call" && Op.symbol_attr o "callee" = Some "square")
             m);
        let out, _ = Ftn_runtime.Executor.run_cpu m in
        Alcotest.(check bool) "13" true (Astring_like.contains out "13.0"));
    tc "wrong function arity is a semantic error" (fun () ->
        sema_err
          "real function f(v)\nreal :: v, f\nf = v\nend function\nprogram p\nreal :: t\nt = f(1.0, 2.0)\nend program");
    tc "do while parses and runs" (fun () ->
        let src =
          "program p\ninteger :: k\nk = 0\ndo while (k < 7)\nk = k + 2\nend do\nprint *, k\nend program"
        in
        let m = Frontend.to_core_verified src in
        Alcotest.(check bool) "scf.while" true
          (Op.exists (fun o -> Op.name o = "scf.while") m);
        let out, _ = Ftn_runtime.Executor.run_cpu m in
        Alcotest.(check bool) "8" true (Astring_like.contains out "8"));
    tc "write(*,*) behaves like print" (fun () ->
        let p_out, _ =
          Ftn_runtime.Executor.run_cpu
            (Frontend.to_core "program p\nprint *, 'x', 1\nend program")
        in
        let w_out, _ =
          Ftn_runtime.Executor.run_cpu
            (Frontend.to_core "program p\nwrite(*,*) 'x', 1\nend program")
        in
        Alcotest.(check string) "same" p_out w_out);
    tc "subroutine arrays pass by reference" (fun () ->
        let m =
          Frontend.to_core_verified
            "subroutine fill(a, n)\ninteger :: n\nreal :: a(n)\ninteger :: i\ndo i = 1, n\na(i) = 1.0\nend do\nend subroutine\nprogram p\nreal :: v(4)\ncall fill(v, 4)\nend program"
        in
        Alcotest.(check int) "two functions" 2
          (Op.count (fun o -> Op.name o = "func.func") m);
        Alcotest.(check bool) "call present" true
          (Op.exists (fun o ->
               Op.name o = "func.call"
               && Op.symbol_attr o "callee" = Some "fill")
             m));
  ]

(* --- driver behaviour on bad source --- *)

let driver_tests =
  [
    tc "ftnc reports located caret diagnostics and exits 1" (fun () ->
        let src_file = Filename.temp_file "bad" ".f90" in
        let err_file = Filename.temp_file "bad" ".err" in
        let oc = open_out src_file in
        output_string oc "program p\nx = 1\ny = 2\nend program\n";
        close_out oc;
        let code =
          Sys.command
            (Fmt.str "../bin/ftnc.exe compile %s 2> %s"
               (Filename.quote src_file) (Filename.quote err_file))
        in
        let ic = open_in_bin err_file in
        let err = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove src_file;
        Sys.remove err_file;
        Alcotest.(check int) "exit code" 1 code;
        let contains needle =
          let nl = String.length needle and hl = String.length err in
          let rec go i =
            i + nl <= hl && (String.sub err i nl = needle || go (i + 1))
          in
          go 0
        in
        (* both semantic errors, each located with file:line:col, with the
           offending source line and a caret underneath *)
        Alcotest.(check bool) "first error located" true
          (contains (Filename.basename src_file ^ "") && contains ".f90:2:");
        Alcotest.(check bool) "second error reported" true (contains ".f90:3:");
        Alcotest.(check bool) "severity tag" true (contains "error:");
        Alcotest.(check bool) "source line echoed" true (contains "x = 1");
        Alcotest.(check bool) "caret" true (contains "^");
        Alcotest.(check bool) "error count summary" true
          (contains "2 errors generated.");
        Alcotest.(check bool) "no backtrace" false (contains "Raised at"));
  ]

let () =
  Alcotest.run "frontend"
    [
      ("lexer", lexer_tests);
      ("omp-parser", omp_tests);
      ("parser", parser_tests);
      ("sema", sema_tests);
      ("lowering", lowering_tests);
      ("driver", driver_tests);
    ]
