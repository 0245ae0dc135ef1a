(* Parser for the generic-operation syntax emitted by Printer. A char-level
   recursive-descent parser: the type grammar (memref shapes like 100x?xf32)
   does not tokenise cleanly, so we work directly on the character stream.

   Values are reconstructed with the same integer ids that appear in the
   text, so [parse (print m)] yields a structurally identical module. *)

exception Parse_error of string * int

type state = {
  src : string;
  mutable pos : int;
}

let error st msg = raise (Parse_error (msg, st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek_at st k =
  if st.pos + k < String.length st.src then Some st.src.[st.pos + k] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some '/' when peek_at st 1 = Some '/' ->
    (* line comment *)
    while peek st <> None && peek st <> Some '\n' do
      advance st
    done;
    skip_ws st
  | _ -> ()

let expect_char st c =
  skip_ws st;
  match peek st with
  | Some c' when c = c' -> advance st
  | Some c' -> error st (Fmt.str "expected '%c', found '%c'" c c')
  | None -> error st (Fmt.str "expected '%c', found end of input" c)

let eat_char st c =
  skip_ws st;
  match peek st with
  | Some c' when c = c' ->
    advance st;
    true
  | _ -> false

let expect_string st s =
  skip_ws st;
  let n = String.length s in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = s
  then st.pos <- st.pos + n
  else error st (Fmt.str "expected %S" s)

let looking_at st s =
  skip_ws st;
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '$'

let parse_ident st =
  skip_ws st;
  let start = st.pos in
  while
    match peek st with Some c when is_ident_char c -> true | _ -> false
  do
    advance st
  done;
  if st.pos = start then error st "expected identifier";
  String.sub st.src start (st.pos - start)

let parse_int st =
  skip_ws st;
  let start = st.pos in
  if peek st = Some '-' then advance st;
  while match peek st with Some ('0' .. '9') -> true | _ -> false do
    advance st
  done;
  if st.pos = start then error st "expected integer";
  let text = String.sub st.src start (st.pos - start) in
  match int_of_string_opt text with
  | Some n -> n
  | None -> error st (Fmt.str "integer literal out of range: %s" text)

(* Numeric literal: int or float. Handles decimal, scientific and OCaml/C99
   hex-float notation. Returns [`Int n] or [`Float x]. *)
let parse_number st =
  skip_ws st;
  let start = st.pos in
  if peek st = Some '-' then advance st;
  let is_hex = looking_at st "0x" || looking_at st "0X" in
  if is_hex then (
    advance st;
    advance st);
  let num_char c =
    match c with
    | '0' .. '9' | '.' -> true
    | 'e' | 'E' -> true
    | 'a' .. 'd' | 'f' | 'A' .. 'D' | 'F' -> is_hex
    | 'p' | 'P' -> is_hex
    | '+' | '-' ->
      (* sign of an exponent only *)
      st.pos > start
      && (match st.src.[st.pos - 1] with
         | 'e' | 'E' -> not is_hex
         | 'p' | 'P' -> is_hex
         | _ -> false)
    | 'x' | 'X' -> false
    | _ -> false
  in
  while match peek st with Some c when num_char c -> true | _ -> false do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  if text = "" || text = "-" then error st "expected number";
  let is_float =
    is_hex
    || String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
  in
  if is_float then
    match float_of_string_opt text with
    | Some x -> `Float x
    | None -> error st (Fmt.str "bad float literal: %s" text)
  else
    match int_of_string_opt text with
    | Some n -> `Int n
    | None -> error st (Fmt.str "integer literal out of range: %s" text)

let parse_string_lit st =
  expect_char st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some c -> Buffer.add_char buf c
      | None -> error st "unterminated string");
      advance st;
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
    | None -> error st "unterminated string"
  in
  go ();
  Buffer.contents buf

(* Location body, after the opening ["loc("] has been consumed:
   "file":LINE:COL, optionally followed by [to :LINE:END_COL] for spans
   (MLIR's FileLineColRange form). *)
let parse_loc_body st =
  let file = parse_string_lit st in
  expect_char st ':';
  let line = parse_int st in
  expect_char st ':';
  let col = parse_int st in
  let end_col =
    if looking_at st "to" then begin
      expect_string st "to";
      expect_char st ':';
      let _line2 = parse_int st in
      expect_char st ':';
      parse_int st
    end
    else col
  in
  expect_char st ')';
  Ftn_diag.Loc.make ~end_col ~file ~line ~col ()

(* --- types --- *)

let rec parse_type st =
  skip_ws st;
  if eat_char st '(' then begin
    (* function type: (tys) -> (tys) or -> ty *)
    let args = parse_type_list_until st ')' in
    expect_string st "->";
    let results =
      if eat_char st '(' then parse_type_list_until st ')'
      else [ parse_type st ]
    in
    Types.Func (args, results)
  end
  else if looking_at st "!device.kernelhandle" then begin
    expect_string st "!device.kernelhandle";
    Types.Kernel_handle
  end
  else if looking_at st "!hls.axi_protocol" then begin
    expect_string st "!hls.axi_protocol";
    Types.Axi_protocol
  end
  else if looking_at st "!llvm.ptr" then begin
    expect_string st "!llvm.ptr";
    expect_char st '<';
    let elt = parse_type st in
    expect_char st '>';
    Types.Ptr elt
  end
  else if looking_at st "!hls.stream" then begin
    expect_string st "!hls.stream";
    expect_char st '<';
    let elt = parse_type st in
    expect_char st '>';
    Types.Stream elt
  end
  else
    let id = parse_ident st in
    match id with
    | "i1" -> Types.I1
    | "i8" -> Types.I8
    | "i16" -> Types.I16
    | "i32" -> Types.I32
    | "i64" -> Types.I64
    | "index" -> Types.Index
    | "f16" -> Types.F16
    | "f32" -> Types.F32
    | "f64" -> Types.F64
    | "vector" ->
      expect_char st '<';
      let n = parse_int st in
      expect_char st 'x';
      let elt = parse_type st in
      expect_char st '>';
      Types.Vector (n, elt)
    | "tuple" ->
      expect_char st '<';
      let tys = parse_type_list_until st '>' in
      Types.Tuple tys
    | "memref" ->
      expect_char st '<';
      let shape = parse_memref_dims st in
      let elt = parse_type st in
      let memory_space =
        if eat_char st ',' then begin
          let n = parse_int st in
          expect_char st ':';
          let _ = parse_ident st in
          n
        end
        else 0
      in
      expect_char st '>';
      Types.Memref { shape; elt; memory_space }
    | other -> error st (Fmt.str "unknown type %S" other)

and parse_type_list_until st close =
  skip_ws st;
  if peek st = Some close then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let ty = parse_type st in
      if eat_char st ',' then go (ty :: acc)
      else begin
        expect_char st close;
        List.rev (ty :: acc)
      end
    in
    go []

and parse_memref_dims st =
  (* dims are (INT|?) followed by 'x', repeated; stops when the next
     component is not a dimension (i.e. the element type). *)
  let rec go acc =
    skip_ws st;
    match peek st with
    | Some '?' when peek_at st 1 = Some 'x' ->
      advance st;
      advance st;
      go (Types.Dynamic :: acc)
    | Some ('0' .. '9') ->
      (* lookahead: digits then 'x' means a dimension *)
      let save = st.pos in
      let n = parse_int st in
      if peek st = Some 'x' then begin
        advance st;
        go (Types.Static n :: acc)
      end
      else begin
        st.pos <- save;
        List.rev acc
      end
    | _ -> List.rev acc
  in
  go []

(* --- attributes --- *)

let rec parse_attr st =
  skip_ws st;
  match peek st with
  | Some '"' -> Attr.String (parse_string_lit st)
  | Some '@' ->
    advance st;
    Attr.Symbol (parse_ident st)
  | Some '[' ->
    advance st;
    skip_ws st;
    if eat_char st ']' then Attr.Array []
    else
      let rec go acc =
        let a = parse_attr st in
        if eat_char st ',' then go (a :: acc)
        else begin
          expect_char st ']';
          Attr.Array (List.rev (a :: acc))
        end
      in
      go []
  | Some '{' ->
    advance st;
    skip_ws st;
    if eat_char st '}' then Attr.Dict []
    else
      let rec go acc =
        let k = parse_ident st in
        expect_char st '=';
        let v = parse_attr st in
        if eat_char st ',' then go ((k, v) :: acc)
        else begin
          expect_char st '}';
          Attr.Dict (List.rev ((k, v) :: acc))
        end
      in
      go []
  | Some ('0' .. '9' | '-') ->
    (let n = parse_number st in
     skip_ws st;
     if peek st = Some ':' then begin
       advance st;
       let ty = parse_type st in
       match n with
       | `Int i -> Attr.Int (i, ty)
       | `Float x -> Attr.Float (x, ty)
     end
     else
       match n with
       | `Int i -> Attr.Int (i, Types.I64)
       | `Float x -> Attr.Float (x, Types.F64))
  | _ ->
    (* keyword or type attribute *)
    if looking_at st "true" then begin
      expect_string st "true";
      Attr.Bool true
    end
    else if looking_at st "false" then begin
      expect_string st "false";
      Attr.Bool false
    end
    else if looking_at st "unit" then begin
      expect_string st "unit";
      Attr.Unit
    end
    else if looking_at st "loc(" then begin
      expect_string st "loc(";
      Attr.Loc (parse_loc_body st)
    end
    else Attr.Type (parse_type st)

let parse_attr_dict st =
  (* <{k = v, ...}> *)
  expect_char st '<';
  expect_char st '{';
  skip_ws st;
  if eat_char st '}' then begin
    expect_char st '>';
    []
  end
  else
    let rec go acc =
      let k = parse_ident st in
      expect_char st '=';
      let v = parse_attr st in
      if eat_char st ',' then go ((k, v) :: acc)
      else begin
        expect_char st '}';
        expect_char st '>';
        List.rev ((k, v) :: acc)
      end
    in
    go []

(* --- values, operations --- *)

(* Value ids are non-negative, as Builder allocates them: the verifier
   and the rewrite driver index dense tables by id. *)
let parse_value_id st =
  expect_char st '%';
  if peek st = Some '-' then error st "expected a non-negative value id";
  parse_int st

let parse_value_id_list st =
  skip_ws st;
  if peek st <> Some '%' then []
  else
    let rec go acc =
      let id = parse_value_id st in
      if eat_char st ',' then go (id :: acc) else List.rev (id :: acc)
    in
    go []

let rec parse_op st =
  skip_ws st;
  let result_ids =
    if peek st = Some '%' then begin
      let ids = parse_value_id_list st in
      expect_char st '=';
      ids
    end
    else []
  in
  skip_ws st;
  let name = parse_string_lit st in
  expect_char st '(';
  let operand_ids =
    if eat_char st ')' then []
    else
      let ids = parse_value_id_list st in
      expect_char st ')';
      ids
  in
  skip_ws st;
  let attrs = if looking_at st "<{" then parse_attr_dict st else [] in
  skip_ws st;
  let regions =
    (* region list looks like "({ ... }, { ... })"; distinguish from the
       trailing ": (tys) -> (tys)" which starts with ':'. *)
    if peek st = Some '(' then begin
      advance st;
      let rec go acc =
        let r = parse_region st in
        if eat_char st ',' then go (r :: acc)
        else begin
          expect_char st ')';
          List.rev (r :: acc)
        end
      in
      go []
    end
    else []
  in
  expect_char st ':';
  expect_char st '(';
  let operand_tys = parse_type_list_until' st ')' in
  expect_string st "->";
  expect_char st '(';
  let result_tys = parse_type_list_until' st ')' in
  (* trailing source location, e.g. [... : (f32) -> (f32) loc("f.f90":3:7)] *)
  let attrs =
    if looking_at st "loc(" then begin
      expect_string st "loc(";
      ("loc", Attr.Loc (parse_loc_body st)) :: attrs
    end
    else attrs
  in
  let zip ids tys what =
    if List.length ids <> List.length tys then
      error st (Fmt.str "%s count mismatch in %s" what name);
    List.map2 Value.make ids tys
  in
  Op.make name
    ~operands:(zip operand_ids operand_tys "operand")
    ~results:(zip result_ids result_tys "result")
    ~attrs ~regions

and parse_type_list_until' st close =
  skip_ws st;
  if peek st = Some close then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let ty = parse_type st in
      if eat_char st ',' then go (ty :: acc)
      else begin
        expect_char st close;
        List.rev (ty :: acc)
      end
    in
    go []

and parse_region st =
  expect_char st '{';
  let rec blocks acc =
    skip_ws st;
    if peek st = Some '^' then begin
      advance st;
      let label = parse_ident st in
      expect_char st '(';
      let args =
        skip_ws st;
        if eat_char st ')' then []
        else
          let rec go acc =
            let id = parse_value_id st in
            expect_char st ':';
            let ty = parse_type st in
            let v = Value.make id ty in
            if eat_char st ',' then go (v :: acc)
            else begin
              expect_char st ')';
              List.rev (v :: acc)
            end
          in
          go []
      in
      expect_char st ':';
      let body = parse_ops_until st in
      blocks ({ Op.label; args; body } :: acc)
    end
    else begin
      expect_char st '}';
      List.rev acc
    end
  in
  blocks []

and parse_ops_until st =
  let rec go acc =
    skip_ws st;
    match peek st with
    | Some '}' | Some '^' | None -> List.rev acc
    | _ -> go (parse_op st :: acc)
  in
  go []

let parse_ops text =
  let st = { src = text; pos = 0 } in
  let ops = parse_ops_until st in
  skip_ws st;
  if st.pos <> String.length text then error st "trailing input";
  ops

let parse_module text =
  match parse_ops text with
  | [ op ] when Op.is_module op -> op
  | [ op ] -> Op.module_op [ op ]
  | ops -> Op.module_op ops

let parse_type_string text =
  let st = { src = text; pos = 0 } in
  let ty = parse_type st in
  skip_ws st;
  if st.pos <> String.length text then error st "trailing input";
  ty
