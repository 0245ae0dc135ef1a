(* Operations, blocks and regions. The IR is a purely functional tree:
   transformations rebuild the parts they change. SSA use-def is implicit
   through Value identity. *)

type t = {
  name : string;
  operands : Value.t list;
  results : Value.t list;
  attrs : (string * Attr.t) list;
  regions : region list;
}

and block = {
  label : string;
  args : Value.t list;
  body : t list;
}

and region = block list

let make ?(operands = []) ?(results = []) ?(attrs = []) ?(regions = []) name
    =
  { name; operands; results; attrs; regions }

let name op = op.name
let operands op = op.operands
let results op = op.results
let attrs op = op.attrs
let regions op = op.regions

let dialect op =
  match String.index_opt op.name '.' with
  | Some i -> String.sub op.name 0 i
  | None -> op.name

let find_attr op key = List.assoc_opt key op.attrs
let has_attr op key = List.mem_assoc key op.attrs

let set_attr op key attr =
  { op with attrs = (key, attr) :: List.remove_assoc key op.attrs }

let remove_attr op key = { op with attrs = List.remove_assoc key op.attrs }

(* Source location, stored as the reserved "loc" attribute (printed in
   trailing [loc(...)] position by Printer rather than in the attr dict). *)
let loc op =
  match Option.bind (find_attr op "loc") Attr.as_loc with
  | Some l -> l
  | None -> Ftn_diag.Loc.unknown

let set_loc op l =
  if Ftn_diag.Loc.is_known l then
    { op with attrs = ("loc", Attr.Loc l) :: List.remove_assoc "loc" op.attrs }
  else op

let int_attr op key = Option.bind (find_attr op key) Attr.as_int
let string_attr op key = Option.bind (find_attr op key) Attr.as_string
let symbol_attr op key = Option.bind (find_attr op key) Attr.as_symbol
let bool_attr op key = Option.bind (find_attr op key) Attr.as_bool
let float_attr op key = Option.bind (find_attr op key) Attr.as_float

let operand op i = List.nth op.operands i
let operand_opt op i = List.nth_opt op.operands i
let result op i = List.nth op.results i

let result1 op =
  match op.results with
  | [ r ] -> r
  | _ -> invalid_arg (Fmt.str "Op.result1: %s has %d results" op.name
                        (List.length op.results))

let block ?(label = "bb0") ?(args = []) body = { label; args; body }
let region ?label ?args body = [ block ?label ?args body ]

(* A single-block region's body, the common case for structured control
   flow. Raises if the region has an unexpected shape. *)
let region_body op i =
  match List.nth_opt op.regions i with
  | Some [ b ] -> b.body
  | Some _ -> invalid_arg (Fmt.str "Op.region_body: %s region %d not single-block" op.name i)
  | None -> invalid_arg (Fmt.str "Op.region_body: %s has no region %d" op.name i)

let region_block op i =
  match List.nth_opt op.regions i with
  | Some [ b ] -> b
  | Some _ | None ->
    invalid_arg (Fmt.str "Op.region_block: %s bad region %d" op.name i)

(* Pre-order traversal over an op and everything nested inside it. *)
let rec walk f op =
  f op;
  List.iter (fun blocks -> List.iter (fun b -> List.iter (walk f) b.body) blocks)
    op.regions

let walk_ops f ops = List.iter (walk f) ops

let rec fold f acc op =
  let acc = f acc op in
  List.fold_left
    (fun acc blocks ->
      List.fold_left
        (fun acc b -> List.fold_left (fold f) acc b.body)
        acc blocks)
    acc op.regions

let exists pred op =
  let found = ref false in
  walk (fun o -> if pred o then found := true) op;
  !found

let count pred op = fold (fun n o -> if pred o then n + 1 else n) 0 op

let collect pred op =
  List.rev (fold (fun acc o -> if pred o then o :: acc else acc) [] op)

(* Rebuild an op bottom-up: [f] is applied to each op after its regions
   have been rebuilt. [f] returns a list so rewrites can drop (=[]) or
   expand (1->n) operations. *)
let rec rewrite_bottom_up f op =
  let regions =
    List.map
      (fun blocks ->
        List.map
          (fun b ->
            { b with body = List.concat_map (rewrite_bottom_up f) b.body })
          blocks)
      op.regions
  in
  f { op with regions }

(* Substitute values across an op tree (operands and nested ops). Block
   arguments and results are definitions, never substituted. *)
let rec substitute subst op =
  let sub_v v = match subst v with Some v' -> v' | None -> v in
  {
    op with
    operands = List.map sub_v op.operands;
    regions =
      List.map
        (fun blocks ->
          List.map
            (fun b -> { b with body = List.map (substitute subst) b.body })
            blocks)
        op.regions;
  }

let substitute_map map op =
  substitute (fun v -> Value.Map.find_opt v map) op

(* All values used (as operands) anywhere in the tree. *)
let uses op =
  fold
    (fun acc o -> List.fold_left (fun acc v -> Value.Set.add v acc) acc o.operands)
    Value.Set.empty op

(* All values defined (results and block args) anywhere in the tree. *)
let defs op =
  let acc = ref Value.Set.empty in
  walk
    (fun o ->
      List.iter (fun v -> acc := Value.Set.add v !acc) o.results;
      List.iter
        (fun blocks ->
          List.iter
            (fun b -> List.iter (fun v -> acc := Value.Set.add v !acc) b.args)
            blocks)
        o.regions)
    op;
  !acc

(* Values used within [op] that are defined outside it: the capture set
   needed when outlining a region into a function. *)
let free_values op = Value.Set.diff (uses op) (defs op)

let free_values_of_ops ops =
  let used =
    List.fold_left
      (fun acc o -> Value.Set.union acc (uses o))
      Value.Set.empty ops
  in
  let defined =
    List.fold_left
      (fun acc o -> Value.Set.union acc (defs o))
      Value.Set.empty ops
  in
  Value.Set.diff used defined

(* Module helpers: a module is a builtin.module op with one region. *)
let module_op ?(attrs = []) body =
  make "builtin.module" ~attrs ~regions:[ region body ]

let is_module op = String.equal op.name "builtin.module"

let module_body op =
  if not (is_module op) then invalid_arg "Op.module_body: not a module";
  region_body op 0

let with_module_body op body =
  if not (is_module op) then invalid_arg "Op.with_module_body: not a module";
  { op with regions = [ region body ] }

(* Canonical dense renumbering: every value defined in the tree (results
   and block args) is reassigned a fresh id in pre-order traversal
   position, from 0. Operands defined inside the tree are remapped; free
   values keep their original ids. *)
let renumber op =
  let map = Hashtbl.create 256 in
  let next = ref 0 in
  let fresh v =
    let v' = Value.make !next (Value.ty v) in
    incr next;
    Hashtbl.replace map (Value.id v) v';
    v'
  in
  let lookup v =
    match Hashtbl.find_opt map (Value.id v) with Some v' -> v' | None -> v
  in
  let rec go op =
    let operands = List.map lookup op.operands in
    let results = List.map fresh op.results in
    let regions =
      List.map
        (fun blocks ->
          List.map
            (fun b ->
              let args = List.map fresh b.args in
              { b with args; body = List.map go b.body })
            blocks)
        op.regions
    in
    { op with operands; results; regions }
  in
  go op

(* Find a func.func by its sym_name inside a module. *)
let find_function m fname =
  List.find_opt
    (fun o ->
      String.equal o.name "func.func"
      && (match symbol_attr o "sym_name" with
         | Some s -> String.equal s fname
         | None -> (match string_attr o "sym_name" with
                    | Some s -> String.equal s fname
                    | None -> false)))
    (module_body m)
