(* Lexer for free-form Fortran. Handles case-insensitivity, '!' comments,
   '&' continuations and the '!$omp' sentinel (whose directive text is
   passed through as a single token for Omp_parser). *)

type token =
  | IDENT of string
  | INT of int
  | REAL of float * bool  (** value, is-double-precision *)
  | STRING of string
  | TRUE
  | FALSE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | POW
  | LPAREN
  | RPAREN
  | COMMA
  | COLONCOLON
  | COLON
  | ASSIGN
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | AND
  | OR
  | NOT
  | PERCENT
  | NEWLINE
  | OMP of string  (** Directive text following the !$omp sentinel. *)
  | ACC of string  (** Directive text following the !$acc sentinel. *)
  | EOF

type spanned = {
  tok : token;
  line : int;  (** = [loc.line], kept for convenience. *)
  loc : Ftn_diag.Loc.t;
}

exception Lex_error of string * Ftn_diag.Loc.t

let error loc msg = raise (Lex_error (msg, loc))

let string_of_token = function
  | IDENT s -> Fmt.str "identifier %S" s
  | INT n -> Fmt.str "integer %d" n
  | REAL (x, _) -> Fmt.str "real %g" x
  | STRING s -> Fmt.str "string %S" s
  | TRUE -> ".true."
  | FALSE -> ".false."
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | POW -> "**"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | COLONCOLON -> "::"
  | COLON -> ":"
  | ASSIGN -> "="
  | EQ -> "=="
  | NE -> "/="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | AND -> ".and."
  | OR -> ".or."
  | NOT -> ".not."
  | PERCENT -> "%"
  | NEWLINE -> "end of line"
  | OMP d -> Fmt.str "!$omp %s" d
  | ACC d -> Fmt.str "!$acc %s" d
  | EOF -> "end of input"

(* --- line-level preprocessing --- *)

type sentinel_kind =
  | Omp_line
  | Acc_line
  | Plain_line

type logical_line = {
  text : string;
  ll_line : int;  (** Source line of the first physical line. *)
  kind : sentinel_kind;
}

let is_blank s = String.trim s = ""

(* Strip a trailing '!' comment, respecting string literals. Keeps the
   '!$omp' sentinel out of this path (handled by the caller). *)
let strip_comment s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i in_string quote =
    if i >= n then Buffer.contents buf
    else
      let c = s.[i] in
      if in_string then begin
        Buffer.add_char buf c;
        go (i + 1) (c <> quote) quote
      end
      else if c = '\'' || c = '"' then begin
        Buffer.add_char buf c;
        go (i + 1) true c
      end
      else if c = '!' then Buffer.contents buf
      else begin
        Buffer.add_char buf c;
        go (i + 1) false ' '
      end
  in
  go 0 false ' '

let directive_sentinel s =
  let t = String.trim s in
  let lower = String.lowercase_ascii t in
  let strip () = String.trim (String.sub t 5 (String.length t - 5)) in
  if String.length lower >= 5 && String.sub lower 0 5 = "!$omp" then
    Some (Omp_line, strip ())
  else if String.length lower >= 5 && String.sub lower 0 5 = "!$acc" then
    Some (Acc_line, strip ())
  else None

(* Collapse continuation lines into logical lines. A '&' at the end
   continues onto the next non-blank line; a leading '&' on the
   continuation is consumed. OpenMP directives continue with '!$omp &'. *)
let logical_lines ?(file = "") source =
  let line_loc line = Ftn_diag.Loc.line_only ~file line in
  let lines = String.split_on_char '\n' source in
  let rec go acc line_no = function
    | [] -> List.rev acc
    | raw :: rest -> (
      match directive_sentinel raw with
      | Some (kind, dir) ->
        let dir = String.trim (strip_comment dir) in
        let rec continue_dir dir line_no rest =
          if String.length dir > 0 && dir.[String.length dir - 1] = '&' then
            match rest with
            | next :: rest' -> (
              match directive_sentinel next with
              | Some (kind', cont) when kind' = kind ->
                let cont = String.trim (strip_comment cont) in
                let cont =
                  if String.length cont > 0 && cont.[0] = '&' then
                    String.trim (String.sub cont 1 (String.length cont - 1))
                  else cont
                in
                let dir = String.sub dir 0 (String.length dir - 1) in
                continue_dir (String.trim dir ^ " " ^ cont) (line_no + 1) rest'
              | Some _ | None ->
                error (line_loc line_no)
                  "directive continuation must repeat the same sentinel")
            | [] ->
              error (line_loc line_no) "dangling directive continuation"
          else (dir, line_no, rest)
        in
        let dir, end_line, rest = continue_dir dir line_no rest in
        go
          ({ text = dir; ll_line = line_no; kind } :: acc)
          (end_line + 1) rest
      | None ->
        let stripped = strip_comment raw in
        if is_blank stripped then go acc (line_no + 1) rest
        else
          let rec continue_line text line_no rest =
            let t = String.trim text in
            if String.length t > 0 && t.[String.length t - 1] = '&' then
              match rest with
              | next :: rest' ->
                let next_stripped = strip_comment next in
                if is_blank next_stripped then
                  continue_line text (line_no + 1) (("" :: rest') |> List.tl)
                else
                  let cont = String.trim next_stripped in
                  let cont =
                    if String.length cont > 0 && cont.[0] = '&' then
                      String.sub cont 1 (String.length cont - 1)
                    else cont
                  in
                  let t = String.sub t 0 (String.length t - 1) in
                  continue_line (t ^ " " ^ cont) (line_no + 1) rest'
              | [] -> error (line_loc line_no) "dangling continuation '&'"
            else (text, line_no, rest)
          in
          let text, end_line, rest = continue_line stripped line_no rest in
          go
            ({ text; ll_line = line_no; kind = Plain_line } :: acc)
            (end_line + 1) rest)
  in
  go [] 1 lines

(* --- tokenizing one logical line --- *)

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let dot_operators =
  [
    (".and.", AND);
    (".or.", OR);
    (".not.", NOT);
    (".true.", TRUE);
    (".false.", FALSE);
    (".eq.", EQ);
    (".ne.", NE);
    (".lt.", LT);
    (".le.", LE);
    (".gt.", GT);
    (".ge.", GE);
  ]

let tokenize_line ?(file = "") line_no text emit =
  let n = String.length text in
  let pos = ref 0 in
  (* Span of the token currently being scanned: [start] is its first char
     (0-based), [!pos] is one past its last. Columns are 1-based. *)
  let mk_loc start =
    Ftn_diag.Loc.make ~file ~line:line_no ~col:(start + 1)
      ~end_col:(max (start + 2) (!pos + 1)) ()
  in
  let error_at start msg = error (mk_loc start) msg in
  let peek k = if !pos + k < n then Some text.[!pos + k] else None in
  let starts_with s =
    let l = String.length s in
    !pos + l <= n
    && String.lowercase_ascii (String.sub text !pos l) = s
  in
  let starts_with_dot_operator () =
    List.exists (fun (s, _) -> starts_with s) dot_operators
  in
  while !pos < n do
    let c = text.[!pos] in
    let tok_start = !pos in
    let emit_tok t = emit (mk_loc tok_start) t in
    if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = ';' then begin
      incr pos;
      emit_tok NEWLINE
    end
    else if is_digit c then begin
      (* number: integer or real; exponent letters e/d; kind suffixes like
         1.0_8 are not supported. *)
      let start = !pos in
      while !pos < n && is_digit text.[!pos] do
        incr pos
      done;
      let is_real = ref false in
      let is_double = ref false in
      (* fractional part: a '.' belongs to the number unless it starts a
         dot-operator (keeps "1.and.2" working) *)
      (if !pos < n && text.[!pos] = '.' && not (starts_with_dot_operator ())
       then begin
         is_real := true;
         incr pos;
         while !pos < n && is_digit text.[!pos] do
           incr pos
         done
       end);
      (match if !pos < n then Some (Char.lowercase_ascii text.[!pos]) else None with
      | Some ('e' | 'd') -> (
        let exp_char = Char.lowercase_ascii text.[!pos] in
        let save = !pos in
        incr pos;
        if !pos < n && (text.[!pos] = '+' || text.[!pos] = '-') then incr pos;
        if !pos < n && is_digit text.[!pos] then begin
          while !pos < n && is_digit text.[!pos] do
            incr pos
          done;
          is_real := true;
          if exp_char = 'd' then is_double := true
        end
        else pos := save)
      | _ -> ());
      let lit = String.sub text start (!pos - start) in
      if !is_real then begin
        let normalized =
          String.map (fun c -> if c = 'd' || c = 'D' then 'e' else c) lit
        in
        emit_tok (REAL (float_of_string normalized, !is_double))
      end
      else
        (* lower_fir emits literals as i32, the default integer kind *)
        match int_of_string_opt lit with
        | Some n when n <= 2147483647 -> emit_tok (INT n)
        | _ -> error_at start ("integer literal out of range: " ^ lit)
    end
    else if is_alpha c then begin
      let start = !pos in
      while !pos < n && is_alnum text.[!pos] do
        incr pos
      done;
      emit_tok (IDENT (String.lowercase_ascii (String.sub text start (!pos - start))))
    end
    else if c = '\'' || c = '"' then begin
      let quote = c in
      incr pos;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while not !closed do
        if !pos >= n then error_at tok_start "unterminated string literal"
        else if text.[!pos] = quote then
          if peek 1 = Some quote then begin
            Buffer.add_char buf quote;
            pos := !pos + 2
          end
          else begin
            closed := true;
            incr pos
          end
        else begin
          Buffer.add_char buf text.[!pos];
          incr pos
        end
      done;
      emit_tok (STRING (Buffer.contents buf))
    end
    else if c = '.' then begin
      match
        List.find_opt (fun (s, _) -> starts_with s) dot_operators
      with
      | Some (s, tok) ->
        pos := !pos + String.length s;
        emit_tok tok
      | None -> error_at tok_start "unexpected '.'"
    end
    else begin
      let two = if !pos + 1 < n then String.sub text !pos 2 else "" in
      match two with
      | "**" ->
        pos := !pos + 2;
        emit_tok POW
      | "::" ->
        pos := !pos + 2;
        emit_tok COLONCOLON
      | "==" ->
        pos := !pos + 2;
        emit_tok EQ
      | "/=" ->
        pos := !pos + 2;
        emit_tok NE
      | "<=" ->
        pos := !pos + 2;
        emit_tok LE
      | ">=" ->
        pos := !pos + 2;
        emit_tok GE
      | "=>" -> error_at tok_start "pointer association is not supported"
      | _ -> (
        incr pos;
        match c with
        | '+' -> emit_tok PLUS
        | '-' -> emit_tok MINUS
        | '*' -> emit_tok STAR
        | '/' -> emit_tok SLASH
        | '(' -> emit_tok LPAREN
        | ')' -> emit_tok RPAREN
        | ',' -> emit_tok COMMA
        | ':' -> emit_tok COLON
        | '=' -> emit_tok ASSIGN
        | '<' -> emit_tok LT
        | '>' -> emit_tok GT
        | '%' -> emit_tok PERCENT
        | c -> error_at tok_start (Fmt.str "unexpected character %C" c))
    end
  done

let tokenize ?(file = "") source =
  let out = ref [] in
  let emit loc tok =
    out := { tok; line = loc.Ftn_diag.Loc.line; loc } :: !out
  in
  let line_loc line = Ftn_diag.Loc.line_only ~file line in
  let dir_loc line text =
    (* Directive tokens span the whole directive text after the sentinel. *)
    Ftn_diag.Loc.make ~file ~line ~col:1
      ~end_col:(String.length text + 1) ()
  in
  List.iter
    (fun ll ->
      (match ll.kind with
      | Omp_line -> emit (dir_loc ll.ll_line ll.text) (OMP ll.text)
      | Acc_line -> emit (dir_loc ll.ll_line ll.text) (ACC ll.text)
      | Plain_line -> tokenize_line ~file ll.ll_line ll.text emit);
      emit (line_loc ll.ll_line) NEWLINE)
    (logical_lines ~file source);
  let last_line = List.length (String.split_on_char '\n' source) in
  emit (line_loc last_line) EOF;
  List.rev !out
