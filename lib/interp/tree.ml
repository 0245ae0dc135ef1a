(* Tree-walking execution engine and the interpreter's shared types.

   This module holds everything both engines need — the interpreter
   [state], hashtable [frame]s, the [handler] protocol — plus the
   reference tree-walker: a direct recursive evaluator that re-dispatches
   every executed op, an arith op on its [Arith.kind] and any other on
   [Op.name]. [Compile] builds the fast
   closure-compiled engine on top of these definitions, using the
   tree-walker's [exec_default] as the semantic fallback for ops it does
   not compile; [Interp] is the public facade that picks an engine.

   Default semantics cover arith, math, scf, memref, func and — so that
   un-offloaded Fortran can run as a CPU reference — sequential OpenMP
   (omp.target executes inline, omp.parallel_do runs as an ordinary loop).
   hls directives are no-ops for functional execution.

   device.* operations have no default semantics: the host runtime
   (Ftn_runtime) installs a handler for them. A handler stages an op once
   — it looks at the op alone and returns a runner, or declines — and a
   staged runner takes the op's place, so embedders can also intercept
   DMA transfers or external calls for bookkeeping. This walker stages on
   every execution; the compiled engine stages once per op. *)

open Ftn_ir
open Ftn_dialects

exception Interp_error = Rtval.Interp_error

let error fmt = Fmt.kstr (fun s -> raise (Interp_error s)) fmt

type frame = {
  vals : (int, Rtval.t) Hashtbl.t;
}

(* Which op names a handler may stage. [All] offers it every op. *)
type domain =
  | All
  | Names of string list

let calls_domain = Names [ "func.call"; "fir.call" ]

let domain_matches domain name =
  match domain with
  | All -> true
  | Names ns -> List.exists (String.equal name) ns

(* Which execution engine a state uses. [`Tree] is this module's
   reference walker; [`Compiled] is the closure-compiled engine in
   [Compile]. The tree-walker is retained as the differential-testing
   baseline. *)
type engine = [ `Tree | `Compiled ]

(* Per-state engine scratch storage. The compiled engine hangs its
   function cache off this slot; the extensible type keeps the dependency
   pointing from [Compile] to here rather than the other way around. *)
type cache = ..
type cache += No_cache

(* What an embedding runtime binds to a state for one run (the executor
   binds its context), so the runners it stages read the run through the
   state they are given instead of capturing it, and a state and its
   compiled code can serve many runs. *)
type embedder = ..
type embedder += Unbound

type state = {
  modules : Op.t list;  (** Searched for func.func bodies, in order. *)
  handlers : handler list;
  mutable steps : int;  (** Executed op count (a crude work measure). *)
  max_steps : int;
  mutable on_loop : (loop_key:int -> iters:int -> unit) option;
      (** Called after each loop completes, keyed by the induction
          variable's id — used by the runtime to gather timing stats. *)
  engine : engine;
  mutable exec_cache : cache;
  mutable embedder : embedder;
}

(* [h_stage op] decides from the op alone (its name, attributes and
   operand count) whether the handler takes it, and returns the runner
   that executes it on the op's evaluated operands. Staging neither
   raises nor touches program state: a malformed op stages to a runner
   that raises its error when it executes. *)
and handler = {
  h_domain : domain;
  h_stage : Op.t -> (state -> Rtval.t list -> Rtval.t list) option;
}

let handler ?(domain = All) h_stage = { h_domain = domain; h_stage }

(* Stage [op] with the first of [handlers] whose domain holds it and
   which does not decline. The runner gives the op's source location to
   any structured runtime error that escapes it without one: the runtime
   raises Fault.Error with an unknown location because only the
   interpreter knows which op is executing. Shared by both engines, so
   errors carry the launching op's location however the module runs. *)
let stage_handlers handlers op =
  let name = Op.name op in
  let rec first = function
    | [] -> None
    | h :: rest -> (
      if not (domain_matches h.h_domain name) then first rest
      else
        match h.h_stage op with
        | None -> first rest
        | Some run ->
          let loc = Op.loc op in
          Some
            (fun state operand_values ->
              try run state operand_values
              with
              | Ftn_fault.Fault.Error (e, l) when not (Ftn_diag.Loc.is_known l)
              ->
                raise (Ftn_fault.Fault.Error (e, loc))))
  in
  first handlers

exception Return of Rtval.t list

let default_engine_ref : engine ref = ref `Compiled
let default_engine () = !default_engine_ref
let set_default_engine e = default_engine_ref := e

let make ?(handlers = []) ?(max_steps = 2_000_000_000) ?engine modules =
  let engine =
    match engine with Some e -> e | None -> default_engine ()
  in
  {
    modules;
    handlers;
    steps = 0;
    max_steps;
    on_loop = None;
    engine;
    exec_cache = No_cache;
    embedder = Unbound;
  }

let new_frame () = { vals = Hashtbl.create 64 }

let get frame v =
  match Hashtbl.find_opt frame.vals (Value.id v) with
  | Some rv -> rv
  | None -> error "value %%%d is not bound" (Value.id v)

let set frame v rv = Hashtbl.replace frame.vals (Value.id v) rv

let set_results frame op rvs =
  try List.iter2 (set frame) (Op.results op) rvs
  with Invalid_argument _ ->
    error "%s produced %d values for %d results" (Op.name op)
      (List.length rvs)
      (List.length (Op.results op))

let find_function state name =
  List.find_map
    (fun m ->
      if Op.is_module m then
        match Op.find_function m name with
        | Some f when Func_d.has_body f -> Some f
        | _ -> None
      else None)
    state.modules

(* --- scalar operations --- *)

let rtval_of_scalar = function
  | Arith.Bool b -> Rtval.Bool b
  | Arith.Int n -> Rtval.Int n
  | Arith.Float x -> Rtval.Float x

(* An arith op's result, through [Arith]'s constant reader and
   evaluators. *)
let eval_arith op k operands =
  let name = Op.name op in
  let ty () = Value.ty (Op.result1 op) in
  let pred () = Op.string_attr op "predicate" in
  match (k, operands) with
  | Arith.Constant, _ -> (
    match Option.bind (Op.find_attr op "value") Arith.scalar_of_attr with
    | Some s -> rtval_of_scalar s
    | None -> error "%s without a value" name)
  | Arith.Int_binop o, [ a; b ] -> (
    let ty = ty () in
    match Arith.eval_int_binop o ty (Rtval.as_int a) (Rtval.as_int b) with
    (* an i1 result is a [Bool], non-zero meaning true as in
       [Rtval.as_bool] *)
    | Some n -> if ty = Types.I1 then Rtval.Bool (n <> 0) else Rtval.Int n
    | None ->
      error "integer %s by zero"
        (if o = Arith.Remsi then "remainder" else "division"))
  | Arith.Float_binop o, [ a; b ] ->
    Rtval.Float
      (Arith.eval_float_binop o (ty ()) (Rtval.as_float a) (Rtval.as_float b))
  | Arith.Negf, [ a ] -> Rtval.Float (-.Rtval.as_float a)
  | Arith.Cmpi, [ a; b ] -> (
    match Option.map (fun s -> (s, Arith.int_pred_of_string s)) (pred ()) with
    | Some (_, Some p) ->
      Rtval.Bool (Arith.eval_int_pred p (Rtval.as_int a) (Rtval.as_int b))
    | Some (s, None) -> error "unknown cmpi predicate %s" s
    | None -> error "malformed %s" name)
  | Arith.Cmpf, [ a; b ] -> (
    match Option.map (fun s -> (s, Arith.float_pred_of_string s)) (pred ()) with
    | Some (_, Some p) ->
      Rtval.Bool (Arith.eval_float_pred p (Rtval.as_float a) (Rtval.as_float b))
    | Some (s, None) -> error "unknown cmpf predicate %s" s
    | None -> error "malformed %s" name)
  (* an i1 sign-extends as LLVM's sext does: true is -1 *)
  | Arith.Cast Arith.Extsi, [ v ]
    when List.map Value.ty (Op.operands op) = [ Types.I1 ] ->
    Rtval.Int (if Rtval.as_bool v then -1 else 0)
  (* otherwise the result type alone decides a cast's conversion *)
  | Arith.Cast _, [ v ] -> (
    match ty () with
    | Types.F32 -> Rtval.Float (Types.round_f32 (Rtval.as_float v))
    | Types.F16 | Types.F64 -> Rtval.Float (Rtval.as_float v)
    | Types.I1 -> Rtval.Bool (Rtval.as_bool v)
    | _ -> Rtval.Int (Rtval.as_int v))
  | Arith.Select, [ c; t; f ] -> if Rtval.as_bool c then t else f
  | (Arith.Int_binop _ | Arith.Float_binop _), _ ->
    error "%s expects two operands" name
  | (Arith.Negf | Arith.Cast _), _ -> error "%s expects one operand" name
  | (Arith.Cmpi | Arith.Cmpf), _ -> error "malformed %s" name
  | Arith.Select, _ -> error "%s expects three operands" name

(* --- op dispatch --- *)

let rec exec_op state frame op =
  state.steps <- state.steps + 1;
  if state.steps > state.max_steps then error "step limit exceeded";
  if !Ftn_obs.Profile.on then Ftn_obs.Profile.count_op (Op.name op);
  let operand_values = List.map (get frame) op.Op.operands in
  match stage_handlers state.handlers op with
  | Some run -> set_results frame op (run state operand_values)
  | None -> exec_default state frame op operand_values

and exec_default state frame op operand_values =
  match Arith.kind op with
  | Some k -> set frame (Op.result1 op) (eval_arith op k operand_values)
  | None -> exec_other state frame op operand_values

and exec_other state frame op operand_values =
  let name = Op.name op in
  let operands () = operand_values in
  let ret1 rv = set frame (Op.result1 op) rv in
  match name with
  (* an f32 result rounds, as the libm call the kernel makes does *)
  | "math.sqrt" | "math.exp" | "math.log" | "math.sin" | "math.cos"
  | "math.tanh" | "math.absf" -> (
    match operands () with
    | [ v ] -> (
      match Math_d.unary_fn name with
      | Some g ->
        let r = g (Rtval.as_float v) in
        ret1 (Rtval.Float (Types.round_to (Value.ty (Op.result1 op)) r))
      | None -> error "cannot evaluate %s" name)
    | _ -> error "%s expects one operand" name)
  | "math.powf" -> (
    match operands () with
    | [ a; b ] ->
      ret1
        (Rtval.Float
           (Types.round_to
              (Value.ty (Op.result1 op))
              (Float.pow (Rtval.as_float a) (Rtval.as_float b))))
    | _ -> error "math.powf expects two operands")
  | "memref.alloca" | "memref.alloc" -> (
    match Value.ty (Op.result1 op) with
    | Types.Memref mi ->
      let dynamic = List.map Rtval.as_int (operands ()) in
      let shape = resolve_shape mi dynamic in
      ret1
        (Rtval.Buf
           (Rtval.alloc_buffer ~memory_space:mi.Types.memory_space
              mi.Types.elt shape))
    | _ -> error "allocation must produce a memref")
  | "memref.dealloc" -> ()
  (* Out-of-bounds and mismatched accesses are errors of the interpreted
     program: [Rtval]'s messages, raised as [Interp_error]. *)
  | "memref.load" -> (
    match operands () with
    | buf :: indices -> (
      let indices = List.map Rtval.as_int indices in
      let b = Rtval.as_buffer buf in
      ret1 (try Rtval.load b indices with Invalid_argument m -> error "%s" m))
    | [] -> error "memref.load expects operands")
  | "memref.store" -> (
    match operands () with
    | value :: buf :: indices -> (
      let indices = List.map Rtval.as_int indices in
      let b = Rtval.as_buffer buf in
      try Rtval.store b indices value with Invalid_argument m -> error "%s" m)
    | _ -> error "memref.store expects operands")
  | "memref.dim" -> (
    match operands () with
    | [ buf; idx ] ->
      let b = Rtval.as_buffer buf in
      let i = Rtval.as_int idx in
      (match if i < 0 then None else List.nth_opt b.Rtval.shape i with
      | Some d -> ret1 (Rtval.Int d)
      | None -> error "memref.dim out of range")
    | _ -> error "memref.dim expects two operands")
  | "memref.copy" -> (
    match operands () with
    | [ src; dst ] ->
      Rtval.copy_into ~src:(Rtval.as_buffer src) ~dst:(Rtval.as_buffer dst)
    | _ -> error "memref.copy expects two operands")
  | "memref.dma_start" -> (
    match operands () with
    | [ src; dst ] ->
      Rtval.copy_into ~src:(Rtval.as_buffer src) ~dst:(Rtval.as_buffer dst)
    | _ -> error "memref.dma_start expects two operands")
  | "memref.dma_wait" -> ()
  | "memref.cast" -> (
    match operands () with
    | [ v ] -> ret1 v
    | _ -> error "memref.cast expects one operand")
  | "scf.for" -> exec_for state frame op
  | "scf.if" -> exec_if state frame op
  | "scf.while" -> exec_while state frame op
  | "scf.yield" | "scf.condition" | "omp.yield" | "omp.terminator" -> ()
  | "func.call" | "fir.call" -> exec_call state frame op
  | "func.return" -> raise (Return (operands ()))
  | "func.func" -> ()
  | "builtin.module" -> ()
  | "builtin.unrealized_conversion_cast" -> (
    match operands () with
    | [ v ] -> ret1 v
    | _ -> error "unrealized cast expects one operand")
  (* sequential OpenMP semantics *)
  | "omp.map_info" -> (
    match Op.operands op with
    | var :: _ -> ret1 (get frame var)
    | [] -> error "omp.map_info expects the variable operand")
  | "omp.bounds_info" -> ret1 (Rtval.Int 0)
  | "omp.target" ->
    let blk = Op.region_block op 0 in
    List.iter2 (fun arg v -> set frame arg (get frame v)) blk.Op.args
      (Op.operands op);
    exec_ops state frame blk.Op.body
  | "omp.target_data" -> exec_ops state frame (Op.region_body op 0)
  | "omp.target_enter_data" | "omp.target_exit_data" | "omp.target_update"
    ->
    ()
  | "omp.parallel_do" -> exec_parallel_do state frame op
  (* sequential OpenACC semantics, mirroring the omp cases *)
  | "acc.copy_info" -> (
    match Op.operands op with
    | var :: _ -> ret1 (get frame var)
    | [] -> error "acc.copy_info expects the variable operand")
  | "acc.parallel" ->
    let blk = Op.region_block op 0 in
    List.iter2 (fun arg v -> set frame arg (get frame v)) blk.Op.args
      (Op.operands op);
    exec_ops state frame blk.Op.body
  | "acc.data" -> exec_ops state frame (Op.region_body op 0)
  | "acc.enter_data" | "acc.exit_data" | "acc.update" -> ()
  | "acc.loop" -> exec_acc_loop state frame op
  | "acc.yield" | "acc.terminator" -> ()
  (* hls directives are no-ops functionally *)
  | "hls.pipeline" | "hls.unroll" | "hls.interface" | "hls.array_partition"
  | "hls.dataflow" ->
    ()
  | "hls.axi_protocol" -> (
    match operands () with
    | [ v ] -> ret1 (Rtval.Proto (Rtval.as_int v))
    | _ -> error "hls.axi_protocol expects one operand")
  | "hls.stream_create" -> ret1 (Rtval.StreamQ (Queue.create ()))
  | "hls.stream_read" -> (
    match operands () with
    | [ Rtval.StreamQ q ] ->
      if Queue.is_empty q then error "read on an empty hls.stream"
      else ret1 (Queue.pop q)
    | _ -> error "hls.stream_read expects a stream")
  | "hls.stream_write" -> (
    match operands () with
    | [ Rtval.StreamQ q; v ] -> Queue.push v q
    | _ -> error "hls.stream_write expects a stream and a value")
  | other -> error "no semantics for operation %s" other

and resolve_shape mi dynamic =
  let rec go shape dynamic =
    match shape with
    | [] -> []
    | Types.Static n :: rest -> n :: go rest dynamic
    | Types.Dynamic :: rest -> (
      match dynamic with
      | d :: dynamic -> d :: go rest dynamic
      | [] -> error "missing dynamic dimension operand")
  in
  go mi.Types.shape dynamic

and exec_for state frame op =
  match Scf.for_parts op with
  | None -> error "malformed scf.for"
  | Some parts ->
    let lb = Rtval.as_int (get frame parts.Scf.lb) in
    let ub = Rtval.as_int (get frame parts.Scf.ub) in
    let step = Rtval.as_int (get frame parts.Scf.step) in
    if step <= 0 then error "scf.for requires a positive step";
    let iters = ref (List.map (get frame) parts.Scf.iter_inits) in
    let i = ref lb in
    while !i < ub do
      set frame parts.Scf.induction (Rtval.Int !i);
      List.iter2 (set frame) parts.Scf.iter_args !iters;
      exec_ops state frame parts.Scf.body;
      (match List.rev parts.Scf.body with
      | last :: _ when Scf.is_yield last ->
        iters := List.map (get frame) (Op.operands last)
      | _ -> ());
      i := !i + step
    done;
    (match state.on_loop with
    | Some f ->
      f ~loop_key:(Value.id parts.Scf.induction)
        ~iters:(if step > 0 then max 0 ((ub - lb + step - 1) / step) else 0)
    | None -> ());
    List.iter2 (set frame) (Op.results op) !iters

and exec_if state frame op =
  let cond = Rtval.as_bool (get frame (List.hd (Op.operands op))) in
  let body =
    if cond then Op.region_body op 0
    else if List.length (Op.regions op) > 1 then Op.region_body op 1
    else []
  in
  exec_ops state frame body;
  match List.rev body with
  | last :: _ when Scf.is_yield last ->
    List.iter2 (set frame) (Op.results op)
      (List.map (get frame) (Op.operands last))
  | _ ->
    if Op.results op <> [] then error "scf.if with results needs yields"

and exec_while state frame op =
  match Op.regions op with
  | [ [ before ]; [ after ] ] ->
    let current = ref (List.map (get frame) (Op.operands op)) in
    let continue_ = ref true in
    let results = ref !current in
    while !continue_ do
      List.iter2 (set frame) before.Op.args !current;
      exec_ops state frame before.Op.body;
      (match List.rev before.Op.body with
      | cond_op :: _ when String.equal (Op.name cond_op) "scf.condition" -> (
        match Op.operands cond_op with
        | c :: forwarded ->
          let vals = List.map (get frame) forwarded in
          if Rtval.as_bool (get frame c) then begin
            List.iter2 (set frame) after.Op.args vals;
            exec_ops state frame after.Op.body;
            match List.rev after.Op.body with
            | y :: _ when Scf.is_yield y ->
              current := List.map (get frame) (Op.operands y)
            | _ -> error "scf.while body must end in scf.yield"
          end
          else begin
            continue_ := false;
            results := vals
          end
        | [] -> error "scf.condition needs a condition")
      | _ -> error "scf.while before-region must end in scf.condition")
    done;
    List.iter2 (set frame) (Op.results op) !results
  | _ -> error "malformed scf.while"

and exec_parallel_do state frame op =
  match Omp.loop_parts op with
  | None -> error "malformed omp.parallel_do"
  | Some parts ->
    (* Sequential execution with Fortran's inclusive upper bound. *)
    let bounds =
      List.map2
        (fun (lb, ub) step ->
          ( Rtval.as_int (get frame lb),
            Rtval.as_int (get frame ub),
            Rtval.as_int (get frame step) ))
        (List.combine parts.Omp.lbs parts.Omp.ubs)
        parts.Omp.steps
    in
    let rec loop dims ivs =
      match dims with
      | [] -> exec_ops state frame parts.Omp.loop_body
      | (lb, ub, step) :: rest ->
        if step <= 0 then error "omp.parallel_do requires positive steps";
        let i = ref lb in
        while !i <= ub do
          (match ivs with
          | iv :: _ -> set frame iv (Rtval.Int !i)
          | [] -> ());
          (* Collapsed bound dims can outnumber induction variables (only
             the verified form ties them together), so take the tail
             safely rather than List.tl. *)
          loop rest (match ivs with _ :: t -> t | [] -> []);
          i := !i + step
        done
    in
    loop bounds parts.Omp.ivs

and exec_acc_loop state frame op =
  (* same shape as omp.parallel_do: (lb, ub, step) per collapsed dim then
     reduction operands; inclusive upper bound *)
  let collapse = Option.value ~default:1 (Op.int_attr op "collapse") in
  let operands = Op.operands op in
  let blk = Op.region_block op 0 in
  let rec split i ops acc =
    if i = collapse then List.rev acc
    else
      match ops with
      | lb :: ub :: step :: rest -> split (i + 1) rest ((lb, ub, step) :: acc)
      | _ -> error "malformed acc.loop bounds"
  in
  let bounds =
    List.map
      (fun (lb, ub, step) ->
        ( Rtval.as_int (get frame lb),
          Rtval.as_int (get frame ub),
          Rtval.as_int (get frame step) ))
      (split 0 operands [])
  in
  let rec loop dims ivs =
    match dims with
    | [] -> exec_ops state frame blk.Op.body
    | (lb, ub, step) :: rest ->
      if step <= 0 then error "acc.loop requires positive steps";
      let i = ref lb in
      while !i <= ub do
        (match ivs with
        | iv :: _ -> set frame iv (Rtval.Int !i)
        | [] -> ());
        loop rest (match ivs with _ :: t -> t | [] -> []);
        i := !i + step
      done
  in
  loop bounds blk.Op.args

and exec_call state frame op =
  let callee =
    match Op.symbol_attr op "callee" with
    | Some c -> c
    | None -> error "call without callee"
  in
  let args = List.map (get frame) (Op.operands op) in
  match find_function state callee with
  | Some fn ->
    let results = call_function state fn args in
    set_results frame op results
  | None -> error "call to unknown function %s" callee

and call_function state fn args =
  let callee_frame = new_frame () in
  let params = Func_d.params fn in
  (try List.iter2 (set callee_frame) params args
   with Invalid_argument _ ->
     error "function %s called with %d arguments (expects %d)"
       (Option.value ~default:"?" (Func_d.func_name fn))
       (List.length args) (List.length params));
  try
    exec_ops state callee_frame (Func_d.body fn);
    []
  with Return rvs -> rvs

and exec_ops state frame ops = List.iter (exec_op state frame) ops

(* Find the Fortran main program in a module. *)
let main_function m =
  List.find_opt
    (fun op ->
      Func_d.is_func op
      && Op.bool_attr op "ftn.main" = Some true
      && Func_d.has_body op)
    (Op.module_body m)
