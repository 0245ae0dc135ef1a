(* Canonicalisation: constant folding, common-subexpression elimination,
   store-to-load forwarding on scalar allocas (the paper's "simple
   canonicalisation to remove dependencies between loop iterations"), dead
   code and dead allocation elimination.

   Constant folding and dead-op elimination are driver hooks of the
   rewrite engine (Rewrite.config.fold / is_trivially_dead), so this pass
   is mostly configuration; CSE and store forwarding remain bespoke
   block-local sweeps (they need whole-block context a per-op pattern does
   not have). *)

open Ftn_ir
open Ftn_dialects

let pure_op op =
  match Op.dialect op with
  | "arith" | "math" -> true
  | _ ->
    List.mem (Op.name op)
      [ "memref.dim"; "omp.bounds_info"; "hls.axi_protocol" ]

(* --- constant folding + identity simplification (driver fold hook) --- *)

let folder ctx op =
  (* operands read as both engines read constants *)
  let scalar v = Option.bind (Rewrite.const_of ctx v) Arith.scalar_of_attr in
  let int_of v =
    match scalar v with
    | Some (Arith.Int n) -> Some n
    | Some (Arith.Bool b) -> Some (Bool.to_int b)
    | _ -> None
  in
  let float_of v =
    match scalar v with Some (Arith.Float x) -> Some x | _ -> None
  in
  let ty () = Value.ty (Op.result1 op) in
  let to_const a = Some [ Rewrite.To_constant a ] in
  let to_value v = Some [ Rewrite.To_value v ] in
  match Arith.kind op with
  | None
  | Some
      ( Arith.Constant | Arith.Negf | Arith.Cmpf
      | Arith.Cast (Extsi | Extui | Trunci | Fptosi | Extf | Truncf) ) ->
    None
  | Some (Arith.Int_binop o) -> (
    match Op.operands op with
    | [ x; y ] -> (
      let ty = ty () in
      match (int_of x, int_of y) with
      | Some a, Some c -> (
        match Arith.eval_int_binop o ty a c with
        | Some r -> to_const (Attr.Int (r, ty))
        | None -> None)
      (* identities: x+0, x-0, x*1, x*0, x/1 (and commuted forms) *)
      | _, Some 0 when o = Addi || o = Subi -> to_value x
      | Some 0, _ when o = Addi -> to_value y
      | _, Some 1 when o = Muli || o = Divsi -> to_value x
      | Some 1, _ when o = Muli -> to_value y
      | (_, Some 0 | Some 0, _) when o = Muli -> to_const (Attr.Int (0, ty))
      | _ -> None)
    | _ -> None)
  | Some (Arith.Float_binop o) -> (
    match Op.operands op with
    | [ x; y ] -> (
      match (float_of x, float_of y) with
      | Some a, Some c ->
        let ty = ty () in
        to_const (Attr.Float (Arith.eval_float_binop o ty a c, ty))
      (* x*1.0 and x/1.0 are exact; x+0.0 is not (-0.0 + 0.0 = +0.0) *)
      | _, Some 1.0 when o = Mulf || o = Divf -> to_value x
      | Some 1.0, _ when o = Mulf -> to_value y
      | _ -> None)
    | _ -> None)
  | Some Arith.Cmpi -> (
    match (Op.operands op, Op.string_attr op "predicate") with
    | [ x; y ], Some pred_s -> (
      match (int_of x, int_of y, Arith.int_pred_of_string pred_s) with
      | Some a, Some c, Some pred ->
        let r = Bool.to_int (Arith.eval_int_pred pred a c) in
        to_const (Attr.Int (r, Types.I1))
      | _ -> None)
    | _ -> None)
  | Some (Arith.Cast Index_cast) -> (
    match Op.operands op with
    | [ x ] -> Option.bind (int_of x) (fun a -> to_const (Attr.Int (a, ty ())))
    | _ -> None)
  | Some (Arith.Cast Sitofp) -> (
    match Op.operands op with
    | [ x ] ->
      Option.bind (int_of x) (fun a ->
          let ty = ty () in
          to_const (Attr.Float (Types.round_to ty (float_of_int a), ty)))
    | _ -> None)
  | Some Arith.Select -> (
    match Op.operands op with
    | [ c; t; f ] -> (
      match int_of c with
      | Some 1 -> to_value t
      | Some 0 -> to_value f
      | _ -> None)
    | _ -> None)

(* --- dead code elimination (driver dead-op hook) --- *)

let has_side_effects op =
  match Op.name op with
  | "memref.store" | "memref.dealloc" | "memref.copy" | "memref.dma_start"
  | "memref.dma_wait" | "func.call" | "func.return" | "func.func"
  | "fir.call" | "fir.store" | "scf.yield" | "scf.condition"
  | "builtin.module" ->
    true
  | name when String.length name >= 4 && String.sub name 0 4 = "omp." -> true
  | name when String.length name >= 7 && String.sub name 0 7 = "device." ->
    not (String.equal name "device.lookup")
  | name when String.length name >= 4 && String.sub name 0 4 = "hls." ->
    not (String.equal name "hls.axi_protocol")
  | name when String.length name >= 5 && String.sub name 0 5 = "llvm." -> true
  | "scf.for" | "scf.if" | "scf.while" ->
    (* structured control flow is kept unless it has no side effects
       inside; keep conservatively *)
    true
  | _ -> false

let erasable op =
  (not (has_side_effects op))
  && (pure_op op
     || List.mem (Op.name op)
          [
            "memref.alloca"; "memref.alloc"; "memref.get_global";
            "device.lookup"; "hls.axi_protocol";
            "builtin.unrealized_conversion_cast";
          ])

let config =
  {
    Rewrite.default_config with
    Rewrite.fold = Some folder;
    is_trivially_dead = erasable;
  }

(* all canonicalize entry points drive the fold/DCE hooks with an empty
   pattern set: compile it once at toplevel *)
let no_patterns = Rewrite.compile []

let fold_constants m =
  Rewrite.apply_compiled
    ~config:{ config with Rewrite.is_trivially_dead = (fun _ -> false) }
    no_patterns m

let dce m =
  Rewrite.apply_compiled ~config:{ config with Rewrite.fold = None }
    no_patterns m

(* --- common subexpression elimination (per block, pure ops only) --- *)

(* Two pure ops compute the same value when they have the same name,
   operand ids and attributes. Source locations are metadata, not
   semantics: a "loc" attribute is left out of the key. Floats compare by
   bit pattern, so 0.0 and -0.0 stay distinct, and a value's type is part
   of its attribute, so f32/f64 or i32/index constants of equal value do
   too. *)
module Cse_key = Hashtbl.Make (struct
  type t = string * int list * (string * Attr.t) list

  let rec attr_equal a b =
    match (a, b) with
    | Attr.Float (x, tx), Attr.Float (y, ty) ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      && Types.equal tx ty
    | Attr.Array xs, Attr.Array ys -> List.equal attr_equal xs ys
    | Attr.Dict xs, Attr.Dict ys -> List.equal entry_equal xs ys
    | _ -> Attr.equal a b

  and entry_equal (k, a) (k', b) = String.equal k k' && attr_equal a b

  let equal (name, ids, attrs) (name', ids', attrs') =
    String.equal name name'
    && List.equal Int.equal ids ids'
    && List.equal entry_equal attrs attrs'

  (* identifies 0.0 with -0.0 and NaNs with each other: coarser than
     [equal], so equal keys still hash alike *)
  let hash = Hashtbl.hash
end)

let cse_key op =
  ( Op.name op,
    List.map Value.id (Op.operands op),
    List.filter
      (fun (k, v) ->
        match v with Attr.Loc _ -> not (String.equal k "loc") | _ -> true)
      (Op.attrs op) )

(* One walk over [m] that resolves every operand through [subst], an
   id-keyed substitution for the whole module, and rebuilds each block's
   ops with [body] (which walks an op's regions through the function it
   is given). A value is used only after its definition in walk order,
   nested regions included, so every use is resolved as the walk reaches
   it. Whatever the walk leaves unchanged stays shared, so a sweep that
   changes nothing returns [m] itself. *)
let sweep subst body m =
  let resolve v =
    match Arena.get subst (Value.id v) with Some v' -> v' | None -> v
  in
  let rec walk_op op =
    let operands = Op.map_shared resolve op.Op.operands in
    let regions = Op.map_shared (Op.map_shared walk_block) op.Op.regions in
    if operands == op.Op.operands && regions == op.Op.regions then op
    else { op with Op.operands; regions }
  and walk_block blk =
    let ops = body walk_op blk.Op.body in
    if ops == blk.Op.body then blk else { blk with Op.body = ops }
  in
  walk_op m

(* Ops merge only within a block. *)
let cse m =
  let subst = Arena.create None in
  sweep subst
    (fun walk_op ops ->
      let seen : Value.t list Cse_key.t = Cse_key.create 16 in
      Op.filter_map_shared
        (fun op ->
          let op = walk_op op in
          if pure_op op && op.Op.regions = [] && Op.results op <> [] then begin
            let k = cse_key op in
            match Cse_key.find_opt seen k with
            | Some prior_results ->
              List.iter2
                (fun r p -> Arena.set subst (Value.id r) (Some p))
                (Op.results op) prior_results;
              None
            | None ->
              Cse_key.add seen k (Op.results op);
              Some op
          end
          else Some op)
        ops)
    m

(* --- store-to-load forwarding on rank-0 allocas --- *)

let is_scalar_alloca_ty v =
  match Value.ty v with
  | Types.Memref { shape = []; _ } -> true
  | _ -> false

(* Track, per block, the last value stored to each rank-0 memref that an
   alloca produced; any op with regions or a call forgets them all
   (conservative). A forwarded load's uses may sit anywhere after it,
   nested regions included. *)
let forward_stores m =
  let subst = Arena.create None in
  let scalar_alloca = Arena.create false in
  let is_scalar_alloca v = Arena.get scalar_alloca (Value.id v) in
  sweep subst
    (fun walk_op ops ->
      let last_store : (int, Value.t) Hashtbl.t = Hashtbl.create 8 in
      Op.filter_map_shared
        (fun op ->
          let op = walk_op op in
          match (Op.name op, Op.operands op) with
          | "memref.alloca", _ ->
            let r = Op.result1 op in
            if is_scalar_alloca_ty r then
              Arena.set scalar_alloca (Value.id r) true;
            Some op
          | "memref.store", [ value; mr ] when is_scalar_alloca mr ->
            Hashtbl.replace last_store (Value.id mr) value;
            Some op
          | "memref.load", [ mr ] when is_scalar_alloca mr -> (
            match Hashtbl.find_opt last_store (Value.id mr) with
            | Some value ->
              Arena.set subst (Value.id (Op.result1 op)) (Some value);
              None
            | None -> Some op)
          | ("func.call" | "fir.call"), _ ->
            Hashtbl.reset last_store;
            Some op
          | _ ->
            if op.Op.regions <> [] then Hashtbl.reset last_store;
            Some op)
        ops)
    m

(* Remove allocas whose only remaining uses are stores. *)
let dead_alloca_elimination m =
  let store_only = ref Value.Set.empty in
  Op.walk
    (fun op ->
      match Op.name op with
      | "memref.alloca" -> store_only := Value.Set.add (Op.result1 op) !store_only
      | _ -> ())
    m;
  (* memref.store's target position must not disqualify: disqualify uses
     except as the memref operand of a store *)
  let disqualified = ref Value.Set.empty in
  Op.walk
    (fun op ->
      match Op.name op with
      | "memref.store" -> (
        match Op.operands op with
        | value :: _mr :: indices ->
          disqualified := Value.Set.add value !disqualified;
          List.iter
            (fun v -> disqualified := Value.Set.add v !disqualified)
            indices
        | _ -> ())
      | _ ->
        List.iter
          (fun v -> disqualified := Value.Set.add v !disqualified)
          (Op.operands op))
    m;
  let dead = Value.Set.diff !store_only !disqualified in
  if Value.Set.is_empty dead then m
  else
    let rec walk_op op =
      let op =
        {
          op with
          Op.regions =
            List.map
              (fun blocks ->
                List.map
                  (fun blk ->
                    { blk with Op.body = List.concat_map walk_op blk.Op.body })
                  blocks)
              op.Op.regions;
        }
      in
      match Op.name op with
      | "memref.alloca" when Value.Set.mem (Op.result1 op) dead -> []
      | "memref.store" -> (
        match Op.operands op with
        | _ :: mr :: _ when Value.Set.mem mr dead -> []
        | _ -> [ op ])
      | _ -> [ op ]
    in
    match walk_op m with
    | [ m' ] -> m'
    | _ -> invalid_arg "dead_alloca_elimination: module vanished"

let simplify m = Rewrite.apply_compiled ~config no_patterns m

(* [simplify] reaches a fixpoint, so it reruns only after a sweep that
   changed the module. *)
let run m =
  let m = simplify m in
  let swept = forward_stores (cse m) in
  let m = if swept == m then m else simplify swept in
  let swept = dead_alloca_elimination m in
  if swept == m then m else simplify swept

let pass = Pass.make "canonicalize" run
