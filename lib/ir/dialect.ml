(* Registry of known operations. Dialect libraries register op descriptors
   at module-initialisation time; the verifier consults the registry for
   per-op structural checks. Unregistered ops are tolerated (MLIR's
   "unregistered dialect" behaviour) unless the verifier is run in strict
   mode. *)

type op_info = {
  op_name : string;
  summary : string;
  verify : Op.t -> (unit, string) result;
}

let registry : (string, op_info) Hashtbl.t = Hashtbl.create 128

let register ?(summary = "") ?(verify = fun _ -> Ok ()) op_name =
  Hashtbl.replace registry op_name { op_name; summary; verify }

let lookup op_name = Hashtbl.find_opt registry op_name
let is_registered op_name = Hashtbl.mem registry op_name

let registered_ops () =
  Hashtbl.fold (fun k _ acc -> k :: acc) registry []
  |> List.sort String.compare

let registered_dialects () =
  registered_ops ()
  |> List.filter_map (fun name ->
         match String.index_opt name '.' with
         | Some i -> Some (String.sub name 0 i)
         | None -> None)
  |> List.sort_uniq String.compare

(* Common verifier combinators used by dialect definitions. Each one
   tests its condition first and formats a message only on failure: the
   verifier runs them on every op between passes, and almost all pass. *)

let check cond msg = if cond then Ok () else Error msg

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let expect_count op what got n =
  if got = n then Ok ()
  else Error (Fmt.str "%s expects %d %s, got %d" (Op.name op) n what got)

let expect_operands op n =
  expect_count op "operands" (List.length (Op.operands op)) n

let expect_results op n =
  expect_count op "results" (List.length (Op.results op)) n

let expect_regions op n =
  expect_count op "regions" (List.length (Op.regions op)) n

let expect_attr op key =
  if Op.has_attr op key then Ok ()
  else Error (Fmt.str "%s missing attribute %S" (Op.name op) key)

let expect_operand_type op i ty =
  match Op.operand_opt op i with
  | Some v when Types.equal (Value.ty v) ty -> Ok ()
  | Some v ->
    Error
      (Fmt.str "%s operand %d: expected %s, got %s" (Op.name op) i
         (Types.to_string ty)
         (Types.to_string (Value.ty v)))
  | None -> Error (Fmt.str "%s has no operand %d" (Op.name op) i)

let same_type_operands op =
  match Op.operands op with
  | [] | [ _ ] -> Ok ()
  | v :: rest ->
    if List.for_all (fun u -> Types.equal (Value.ty u) (Value.ty v)) rest then
      Ok ()
    else Error (Fmt.str "%s operands must all have the same type" (Op.name op))
