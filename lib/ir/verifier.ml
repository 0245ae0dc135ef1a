(* Structural IR verification:
     - every value has a single definition;
     - every use is dominated by its definition (sequential order within a
       block, or a definition in an enclosing region — standard MLIR
       visibility for structured control flow);
     - per-op checks from the dialect registry.

   Isolated-from-above ops (builtin.module, func.func, device.kernel_create)
   reset visibility: their regions may not reference outer values, except
   that kernel_create regions may use the op's own operands (they are
   re-bound as block args after outlining).

   Diagnostics are located (each carries the op's [loc] attribute when
   present) and collected rather than thrown one at a time. *)

let isolated_from_above name =
  List.mem name [ "builtin.module"; "func.func"; "device.kernel_create" ]

let verify ?(strict = false) top =
  let diags = ref [] in
  let add op message =
    diags :=
      Ftn_diag.Diag.error ~loc:(Op.loc op)
        (Fmt.str "'%s': %s" op.Op.name message)
      :: !diags
  in
  (* Both tables are dense arrays indexed by value id. *)
  let defined = Arena.create ~capacity:256 false in
  let define op v =
    if Arena.get defined (Value.id v) then
      add op (Fmt.str "value %%%d defined twice" (Value.id v))
    else Arena.set defined (Value.id v) true
  in
  (* [scope] holds, per value, the isolation depth of its innermost
     binding (-1 when unbound), and only bindings at the current [depth]
     are visible, so entering an isolated op hides the enclosing scope
     without copying it. A binding shadows any earlier one for the same
     value; each region logs what it overwrote and restores it when it
     ends, which restores the scope of the op that holds it. *)
  let scope = Arena.create ~capacity:256 (-1) in
  let depth = ref 0 in
  let visible v = Arena.get scope (Value.id v) = !depth in
  let rec check_op op =
    List.iter
      (fun v ->
        if not (visible v) then
          add op (Fmt.str "use of undefined value %%%d" (Value.id v)))
      op.Op.operands;
    List.iter (define op) op.Op.results;
    (match Dialect.lookup op.Op.name with
    | Some info -> (
      match info.Dialect.verify op with
      | Ok () -> ()
      | Error msg -> add op msg)
    | None -> if strict then add op "unregistered operation");
    if op.Op.regions <> [] then begin
      (* Every region starts from the op's scope plus its operands (even
         undefined ones, already reported above) and its results. An
         isolated op starts from nothing instead, except that
         kernel_create regions may reference the op's own operands:
         they become block args of the outlined device function. *)
      let isolated = isolated_from_above op.Op.name in
      let seeded =
        if isolated && not (String.equal op.Op.name "device.kernel_create")
        then []
        else op.Op.operands
      in
      if isolated then incr depth;
      (* Blocks of a region are checked sequentially with definitions
         accumulating across blocks: precise for structured single-block
         regions, and lenient enough for CFG-form llvm.func regions (a
         full dominance analysis would reject nothing the emitter
         produces). *)
      List.iter
        (fun blocks ->
          let undo = ref [] in
          let bind v =
            let i = Value.id v in
            undo := (i, Arena.get scope i) :: !undo;
            Arena.set scope i !depth
          in
          List.iter bind seeded;
          List.iter bind op.Op.results;
          List.iter
            (fun b ->
              List.iter (define op) b.Op.args;
              List.iter bind b.Op.args;
              List.iter
                (fun o ->
                  check_op o;
                  List.iter bind o.Op.results)
                b.Op.body)
            blocks;
          List.iter (fun (i, prev) -> Arena.set scope i prev) !undo)
        op.Op.regions;
      if isolated then decr depth
    end
  in
  check_op top;
  List.rev !diags

let verify_exn ?strict top =
  match verify ?strict top with
  | [] -> ()
  | diags -> raise (Ftn_diag.Diag.Diag_failure diags)

let is_valid ?strict top = verify ?strict top = []
