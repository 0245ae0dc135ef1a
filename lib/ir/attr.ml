(* Attributes: compile-time constant data attached to operations. *)

type t =
  | Unit
  | Bool of bool
  | Int of int * Types.t
  | Float of float * Types.t
  | String of string
  | Symbol of string
  | Type of Types.t
  | Array of t list
  | Dict of (string * t) list
  | Loc of Ftn_diag.Loc.t

let i32 n = Int (n, Types.I32)
let i64 n = Int (n, Types.I64)
let index n = Int (n, Types.Index)
let f32 x = Float (x, Types.F32)
let f64 x = Float (x, Types.F64)

let rec equal a b =
  match a, b with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int (x, tx), Int (y, ty) -> x = y && Types.equal tx ty
  | Float (x, tx), Float (y, ty) -> x = y && Types.equal tx ty
  | String x, String y | Symbol x, Symbol y -> String.equal x y
  | Type x, Type y -> Types.equal x y
  | Array xs, Array ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Dict xs, Dict ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (kx, vx) (ky, vy) -> String.equal kx ky && equal vx vy)
         xs ys
  | Loc x, Loc y -> Ftn_diag.Loc.equal x y
  | ( Unit | Bool _ | Int _ | Float _ | String _ | Symbol _ | Type _
    | Array _ | Dict _ | Loc _ ), _ ->
    false

let as_int = function
  | Int (n, _) -> Some n
  | Unit | Bool _ | Float _ | String _ | Symbol _ | Type _ | Array _
  | Dict _ | Loc _ ->
    None

let as_float = function
  | Float (x, _) -> Some x
  | Unit | Bool _ | Int _ | String _ | Symbol _ | Type _ | Array _ | Dict _
  | Loc _ ->
    None

let as_string = function
  | String s -> Some s
  | Unit | Bool _ | Int _ | Float _ | Symbol _ | Type _ | Array _ | Dict _
  | Loc _ ->
    None

let as_symbol = function
  | Symbol s -> Some s
  | Unit | Bool _ | Int _ | Float _ | String _ | Type _ | Array _ | Dict _
  | Loc _ ->
    None

let as_bool = function
  | Bool b -> Some b
  | Unit | Int _ | Float _ | String _ | Symbol _ | Type _ | Array _
  | Dict _ | Loc _ ->
    None

let as_type = function
  | Type ty -> Some ty
  | Unit | Bool _ | Int _ | Float _ | String _ | Symbol _ | Array _
  | Dict _ | Loc _ ->
    None

let as_array = function
  | Array xs -> Some xs
  | Unit | Bool _ | Int _ | Float _ | String _ | Symbol _ | Type _ | Dict _
  | Loc _ ->
    None

let as_loc = function
  | Loc l -> Some l
  | Unit | Bool _ | Int _ | Float _ | String _ | Symbol _ | Type _
  | Array _ | Dict _ ->
    None

(* Escapes the minimal set needed for round-tripping string attributes. *)
let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let short_decimal x =
  if Float.is_integer x && Float.abs x < 1e15 then
    let d = Fmt.str "%.6e" x in
    if float_of_string d = x then Some d else None
  else None

let float_repr x =
  match short_decimal x with Some d -> d | None -> Fmt.str "%h" x

let rec pp fmt = function
  | Unit -> Fmt.string fmt "unit"
  | Bool b -> Fmt.bool fmt b
  | Int (n, ty) -> Fmt.pf fmt "%d : %a" n Types.pp ty
  | Float (x, ty) -> Fmt.pf fmt "%s : %a" (float_repr x) Types.pp ty
  | String s -> Fmt.pf fmt "\"%s\"" (escape_string s)
  | Symbol s -> Fmt.pf fmt "@%s" s
  | Type ty -> Types.pp fmt ty
  | Array xs -> Fmt.pf fmt "[%a]" (Fmt.list ~sep:(Fmt.any ", ") pp) xs
  | Dict kvs ->
    let pp_kv fmt (k, v) = Fmt.pf fmt "%s = %a" k pp v in
    Fmt.pf fmt "{%a}" (Fmt.list ~sep:(Fmt.any ", ") pp_kv) kvs
  | Loc l -> Fmt.pf fmt "loc(%a)" Ftn_diag.Loc.pp l

let to_string x =
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt 1_000_000;
  pp fmt x;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

