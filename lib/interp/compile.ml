(* Closure-compiled execution engine.

   [compile_function] walks a func.func body once and produces a tree of
   [code : frame -> unit] closures: op-name dispatch, constant and
   attribute decoding, cmp-predicate resolution, loop-part destructuring,
   result arities and callee resolution are all paid at compile time.
   Only ops that do work get a closure. A constant's value is written
   once into the function's frame template, which each call's frame
   copies, and a no-op (a terminator, a data marker, an hls directive,
   memref.dealloc, memref.dma_wait) compiles to nothing.

   A frame is a set of typed register files. Each SSA value gets a slot in
   one of three arrays, fixed from its static type when it is first seen:
   integers (i1 as 0/1, i8 to i64, index) in an [int array], floats (f16,
   f32, f64) in a [floatarray], and everything else (memrefs, streams,
   handles, protocols) in an [Rtval.t array]. Op closures read and write
   the unboxed files directly, so scalar work neither allocates nor takes
   the write barrier. A value becomes an [Rtval.t] only where it leaves
   compiled code — function arguments and results, calls, returns,
   hls.stream_* and handler runners — boxed by its static type (i1 ->
   [Bool], other integers -> [Int], floats -> [Float]); values coming
   back are unboxed with [Rtval.as_int] / [Rtval.as_float] semantics. A
   leaf op that is structurally malformed (wrong operand count, bad
   predicate, missing attribute) or whose operand or result files do not
   fit its compiled form (IR whose value types disagree with the op)
   runs the tree-walker's own semantics on boxed operands instead. Its
   results are then converted to their values' static types like any
   value coming back, so where the tree-walker's result has another
   form than its static type (an [Int] for an f32 value, say, only in
   IR whose types disagree with the op) the engines differ.

   On IR whose value types agree with its ops, the engine preserves
   [Tree]'s observable contract exactly:
   - [steps] equals the tree-walker's wherever it can be observed. The
     tree-walker bumps it once per executed op, no-ops included, before
     the op runs. Here a sequence runs as segments: a run of elided ops
     and ops that can neither raise nor read [steps] (the fast forms of
     arithmetic other than divsi/remsi, compares, select, casts, math
     and same-file moves), closed by the next op that can (a load,
     store, division, allocation, call, return, region op, handler-taken
     op or tree-semantics fallback) or by the sequence's end. A segment's
     op count is charged, and [max_steps] checked, once before its first
     op. Only its last op can raise or read [steps], so it sees the
     tree-walker's count, and the [max_steps] error leaves [steps] and
     the profile counts where the tree-walker leaves them; the ops it
     skips would only have written frame slots that nothing reads;
   - handlers take ops in place of default semantics — each op is
     staged once, when it is compiled (the tree-walker stages it on every
     execution), and an op a handler takes compiles to boxing its
     operands, calling the staged runner and unboxing its results;
   - [on_loop] fires for scf.for with the same [loop_key] (the induction
     value's id) and the same trip count;
   - f32 results round per operation, and stores to f32 buffers round,
     as in [Tree];
   - out-of-bounds and rank-mismatched memref accesses raise
     [Interp_error] with [Rtval]'s messages.

   Malformed ops raise the tree-walker's error message when — and only
   when — they execute, so dead malformed code stays dead, as under the
   tree-walker: leaf ops through the tree-walker itself, region ops and
   calls through a closure raising its message.

   Compiled functions are cached per interpreter state, keyed by the
   func.func op's physical identity, so func.call sites, kernel
   relaunches and later runs of the same state reuse code; the runtime
   keeps one state per artifact, so each function compiles once per
   artifact. The cache also records the profiling stamp it was compiled
   under and starts afresh when the stamp changes. Compiled code holds
   no value of a run: operands pass through the frame, handler runners
   read their run through the state, and the scratch the fallbacks and
   parallel copies use is cleared after each value passes through it
   ([copy_slots]) or when the run ends ([release]). Compilation is lazy:
   a call site only forces its callee's compilation on first execution
   (this also handles recursion). *)

open Ftn_ir
open Ftn_dialects
module Span = Ftn_obs.Span
module Metrics = Ftn_obs.Metrics

type frame = {
  ints : int array;
  floats : floatarray;
  vals : Rtval.t array;
}

type code = frame -> unit

(* Which register file holds a value; fixed by its static type. *)
type file =
  | Ints
  | Floats
  | Vals

type slot = {
  file : file;
  idx : int;  (** Index within [file]. *)
  ty : Types.t;
}

let file_of_type = function
  | Types.I1 | Types.I8 | Types.I16 | Types.I32 | Types.I64 | Types.Index ->
    Ints
  | Types.F16 | Types.F32 | Types.F64 -> Floats
  | _ -> Vals

(* Slot accessors. Slot indices come from the function's own slot
   assignment and frames are sized after it completes, so every index is
   in range. *)
let[@inline] gi f i = Array.unsafe_get f.ints i
let[@inline] si f i x = Array.unsafe_set f.ints i x
let[@inline] gf f i = Float.Array.unsafe_get f.floats i
let[@inline] sf f i x = Float.Array.unsafe_set f.floats i x
let[@inline] gv f i = Array.unsafe_get f.vals i
let[@inline] sv f i x = Array.unsafe_set f.vals i x

(* [Types.round_f32], written here so it inlines into the closures and
   its float never boxes: the default (dev) build compiles with -opaque,
   so a call into another module is never inlined. *)
let[@inline] round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let error = Tree.error

(* A closure raising [fmt] when executed — deferred so malformed ops only
   fail if reached, mirroring the tree-walker's runtime errors. *)
let raisef fmt =
  Fmt.kstr (fun s -> fun (_ : frame) -> raise (Tree.Interp_error s)) fmt

let nop : code = fun _ -> ()

(* What an op compiles to. [Elided] ops do nothing at run time: a
   constant, whose value is preloaded into the frame template, or a no-op
   such as a terminator or an hls directive. [Pure] code cannot raise and
   does not read [steps]. [Work] code may do either, so it closes its
   segment. *)
type op_code =
  | Elided
  | Pure of code
  | Work of code

(* A compiled op sequence, cut into segments: a segment is a run of ops
   charged together, closed by an op that may raise or read [steps] or by
   the sequence's end. [codes] are the ops that do work, in order;
   [opens.(k)] is the op count, elided ops included, of the segment that
   [codes.(k)] opens, or 0 when it continues one. [tail] is the op count
   of a last segment that holds no code, or 0. Under profiling
   [counters.(k)] and [tail_counters] hold those segments' ops'
   [Profile.op_counter]s in op order; otherwise they are empty. *)
type seq = {
  codes : code array;
  opens : int array;
  tail : int;
  counters : int ref array array;
  tail_counters : int ref array;
}

(* --- boxing at the edges of compiled code --- *)

(* The slot's value as an [Rtval.t], by the slot's static type. *)
let box s : frame -> Rtval.t =
  let i = s.idx in
  match (s.file, s.ty) with
  | Ints, Types.I1 -> fun f -> Rtval.Bool (gi f i <> 0)
  | Ints, _ -> fun f -> Rtval.Int (gi f i)
  | Floats, _ -> fun f -> Rtval.Float (gf f i)
  | Vals, _ -> fun f -> gv f i

let unbox s : frame -> Rtval.t -> unit =
  let i = s.idx in
  match s.file with
  | Ints -> fun f v -> si f i (Rtval.as_int v)
  | Floats -> fun f v -> sf f i (Rtval.as_float v)
  | Vals -> fun f v -> sv f i v

(* Readers with [Rtval.as_int] / [Rtval.as_bool] semantics, for operands
   read once per loop entry or off the hot path. *)
let int_reader s : frame -> int =
  let i = s.idx in
  match s.file with
  | Ints -> fun f -> gi f i
  | Floats -> fun f -> int_of_float (gf f i)
  | Vals -> fun f -> Rtval.as_int (gv f i)

let bool_reader s : frame -> bool =
  let i = s.idx in
  match s.file with
  | Ints -> fun f -> gi f i <> 0
  | Floats -> fun _ -> invalid_arg "as_bool"
  | Vals -> fun f -> Rtval.as_bool (gv f i)

(* Where a loop writes its induction value: straight into the int file,
   or as the tree-walker's [Int] for an induction value of another type;
   [Iv_none] for a collapsed dimension without one. *)
type iv_slot =
  | Iv_int of int
  | Iv_boxed of (frame -> Rtval.t -> unit)
  | Iv_none

let iv_slot s =
  match s.file with Ints -> Iv_int s.idx | Floats | Vals -> Iv_boxed (unbox s)

let[@inline] set_iv f iv i =
  match iv with
  | Iv_int k -> si f k i
  | Iv_boxed set -> set f (Rtval.Int i)
  | Iv_none -> ()

(* Copy one slot's value into another. *)
let move s d : code =
  match (s.file, d.file) with
  | Ints, Ints ->
    let s = s.idx and d = d.idx in
    fun f -> si f d (gi f s)
  | Floats, Floats ->
    let s = s.idx and d = d.idx in
    fun f -> sf f d (gf f s)
  | Vals, Vals ->
    let s = s.idx and d = d.idx in
    fun f -> sv f d (gv f s)
  | _ ->
    let get = box s and set = unbox d in
    fun f -> set f (get f)

(* Parallel slot-to-slot copy. Reads all sources before writing (via a
   per-closure scratch, one per register file) so overlapping src/dst
   sets — a yield forwarding an iter arg — behave like the tree-walker's
   read-the-list-then-bind sequence. The scratch is safe to share across
   invocations: no interpreted code runs between its fill and drain. A
   boxed value leaves the scratch as it is written, so the closure keeps
   no buffer of a finished run alive. *)
let copy_slots ~src ~dst : code =
  let n = Array.length src in
  if Array.length dst <> n then
    invalid_arg "Compile.copy_slots: length mismatch";
  if n = 0 then nop
  else if n = 1 then move src.(0) dst.(0)
  else
    let ti = Array.make n 0 and tf = Float.Array.make n 0.0 in
    let tv = Array.make n Rtval.Unit in
    let step k s d : code * code =
      match (s.file, d.file) with
      | Ints, Ints ->
        let s = s.idx and d = d.idx in
        ((fun f -> ti.(k) <- gi f s), fun f -> si f d ti.(k))
      | Floats, Floats ->
        let s = s.idx and d = d.idx in
        ( (fun f -> Float.Array.set tf k (gf f s)),
          fun f -> sf f d (Float.Array.get tf k) )
      | _ ->
        let get = box s and set = unbox d in
        ( (fun f -> tv.(k) <- get f),
          fun f ->
            set f tv.(k);
            tv.(k) <- Rtval.Unit )
    in
    let steps = Array.init n (fun k -> step k src.(k) dst.(k)) in
    let reads = Array.map fst steps and writes = Array.map snd steps in
    fun f ->
      for k = 0 to n - 1 do
        (Array.unsafe_get reads k) f
      done;
      for k = 0 to n - 1 do
        (Array.unsafe_get writes k) f
      done

(* --- memref element access --- *)

(* [Rtval.linearize]'s checks and messages, raised as [Interp_error]. The
   rank-specialised forms below take the fast path for in-range indices
   of the matching rank and defer everything else here for the exact
   message. *)
let linearize shape indices =
  try Rtval.linearize shape indices with Invalid_argument m -> error "%s" m

let[@inline] lin0 shape = match shape with [] -> 0 | _ -> linearize shape []

let[@inline] lin1 shape i =
  match shape with
  | [ d ] when i >= 0 && i < d -> i
  | _ -> linearize shape [ i ]

let[@inline] lin2 shape i j =
  match shape with
  | [ d0; d1 ] when i >= 0 && i < d0 && j >= 0 && j < d1 -> (i * d1) + j
  | _ -> linearize shape [ i; j ]

(* Any rank, indices read from the int file without building a list. *)
let lin_n f shape (idx : int array) =
  let n = Array.length idx in
  let rec go acc shape k =
    match shape with
    | [] -> if k = n then acc else error "linearize: rank mismatch"
    | d :: rest ->
      if k = n then error "linearize: rank mismatch"
      else
        let i = gi f idx.(k) in
        if i < 0 || i >= d then
          error "index %d out of bounds for dimension of size %d" i d
        else go ((acc * d) + i) rest (k + 1)
  in
  go 0 shape 0

(* The OCaml bounds error a short backing array would raise in
   [Rtval.load] / [Rtval.store]. The element accessors below check with
   it first and then access unconditionally: a float expression whose
   branches include a raise would be boxed. *)
let short_array () : unit = error "index out of bounds"

let[@inline] check (k : int) len = if k >= len then short_array ()

(* [Rtval.as_buffer], inlined. *)
let[@inline] buf_of = function
  | Rtval.Buf b -> b
  | _ -> invalid_arg "as_buffer"

(* [Rtval.load] followed by [as_float] / [as_int]. An i1 buffer loads
   as a [Bool], i.e. 0 or 1. *)
let[@inline] load_float (b : Rtval.buffer) k =
  match b.Rtval.mem with
  | Rtval.F32 a ->
    check k (Bigarray.Array1.dim a);
    Bigarray.Array1.unsafe_get a k
  | Rtval.F a ->
    check k (Array.length a);
    Array.unsafe_get a k
  | Rtval.I a ->
    check k (Array.length a);
    let n = Array.unsafe_get a k in
    float_of_int (if b.Rtval.elt == Types.I1 && n <> 0 then 1 else n)

let[@inline] load_int (b : Rtval.buffer) k =
  match b.Rtval.mem with
  | Rtval.F32 a ->
    check k (Bigarray.Array1.dim a);
    int_of_float (Bigarray.Array1.unsafe_get a k)
  | Rtval.F a ->
    check k (Array.length a);
    int_of_float (Array.unsafe_get a k)
  | Rtval.I a ->
    check k (Array.length a);
    let n = Array.unsafe_get a k in
    if b.Rtval.elt == Types.I1 && n <> 0 then 1 else n

(* [Rtval.store] of a [Float], an [Int] and a [Bool]. The float32 store
   rounds. *)
let[@inline] store_float (b : Rtval.buffer) k x =
  match b.Rtval.mem with
  | Rtval.F32 a ->
    check k (Bigarray.Array1.dim a);
    Bigarray.Array1.unsafe_set a k x
  | Rtval.F a ->
    check k (Array.length a);
    Array.unsafe_set a k x
  | Rtval.I a ->
    check k (Array.length a);
    Array.unsafe_set a k (int_of_float x)

let[@inline] store_int (b : Rtval.buffer) k n =
  match b.Rtval.mem with
  | Rtval.F32 a ->
    check k (Bigarray.Array1.dim a);
    Bigarray.Array1.unsafe_set a k (float_of_int n)
  | Rtval.F a ->
    check k (Array.length a);
    Array.unsafe_set a k (float_of_int n)
  | Rtval.I a ->
    check k (Array.length a);
    Array.unsafe_set a k n

let[@inline] store_bool (b : Rtval.buffer) k n =
  match b.Rtval.mem with
  | Rtval.F _ | Rtval.F32 _ -> error "store: value/buffer type mismatch"
  | Rtval.I a ->
    check k (Array.length a);
    Array.unsafe_set a k n

(* What a store reads from its value slot. *)
type elt_kind =
  | Float_elt
  | Int_elt
  | Bool_elt

let[@inline] load_slot to_float f r b k =
  if to_float then sf f r (load_float b k) else si f r (load_int b k)

let[@inline] store_slot kind f v b k =
  match kind with
  | Float_elt -> store_float b k (gf f v)
  | Int_elt -> store_int b k (gi f v)
  | Bool_elt -> store_bool b k (gi f v)

(* --- compiled functions and the per-state cache --- *)

(* Compiled entry for one function: the op and its lazily-built closure. *)
type entry = {
  e_fn : Op.t;
  mutable e_call : (Rtval.t list -> Rtval.t list) option;
}

type cache = {
  mutable entries : (Op.t * entry) list;  (** Keyed by physical identity. *)
  scratch : Tree.frame;
      (** Frame handed to tree-semantics fallbacks, with the op's
          operands bound. *)
  stamp : int;  (** [Profile.stamp] the entries were compiled under. *)
}

type Tree.cache += Compiled of cache

let get_cache (st : Tree.state) =
  let stamp = Ftn_obs.Profile.stamp () in
  match st.Tree.exec_cache with
  | Compiled c when c.stamp = stamp -> c
  | _ ->
    let c = { entries = []; scratch = Tree.new_frame (); stamp } in
    st.Tree.exec_cache <- Compiled c;
    c

(* Drop the operands a run's fallbacks left in the scratch frame. *)
let release (st : Tree.state) =
  match st.Tree.exec_cache with
  | Compiled c -> Hashtbl.reset c.scratch.Tree.vals
  | _ -> ()

let entry_for cache fn =
  match List.assq_opt fn cache.entries with
  | Some e -> e
  | None ->
    let e = { e_fn = fn; e_call = None } in
    cache.entries <- (fn, e) :: cache.entries;
    e

(* Slot assignment: first reference wins the next free index of the
   value's file. Compilation visits defs and uses in program order, so a
   function's params, op results and block args each land in one
   contiguous per-file slot space. *)
type ctx = {
  st : Tree.state;
  cache : cache;
  slots : (int, slot) Hashtbl.t;
  mutable nints : int;
  mutable nfloats : int;
  mutable nvals : int;
  mutable preloads : code list;
      (** Writes of the function's constants into its frame template. *)
}

let slot ctx v =
  let id = Value.id v in
  match Hashtbl.find_opt ctx.slots id with
  | Some s -> s
  | None ->
    let ty = Value.ty v in
    let file = file_of_type ty in
    let idx =
      match file with
      | Ints ->
        ctx.nints <- ctx.nints + 1;
        ctx.nints - 1
      | Floats ->
        ctx.nfloats <- ctx.nfloats + 1;
        ctx.nfloats - 1
      | Vals ->
        ctx.nvals <- ctx.nvals + 1;
        ctx.nvals - 1
    in
    let s = { file; idx; ty } in
    Hashtbl.add ctx.slots id s;
    s

let slot_array ctx vs = Array.of_list (List.map (slot ctx) vs)

(* A segment that would pass [max_steps]. The tree-walker runs and
   counts its ops up to the limit and fails at the next one. Those ops
   only write frame slots, which nothing reads once the error is raised,
   so here they are counted but not run. *)
let[@inline never] over_limit (st : Tree.state) counters =
  let allowed = st.Tree.max_steps - st.Tree.steps in
  for k = 0 to min allowed (Array.length counters) - 1 do
    incr counters.(k)
  done;
  st.Tree.steps <- max (st.Tree.steps + 1) (st.Tree.max_steps + 1);
  error "step limit exceeded"

(* Charge a segment of [n] ops before its first op runs. *)
let[@inline] charge (st : Tree.state) n counters =
  let steps = st.Tree.steps + n in
  if steps > st.Tree.max_steps then over_limit st counters;
  st.Tree.steps <- steps;
  for k = 0 to Array.length counters - 1 do
    incr (Array.unsafe_get counters k)
  done

(* Execute a compiled op sequence. Only a segment's last op can raise or
   read [steps], so whatever reads [steps] sees [Tree.exec_op]'s count:
   one step per op, bumped before the op runs. *)
let run_seq (st : Tree.state) (s : seq) (f : frame) =
  let codes = s.codes and opens = s.opens and counters = s.counters in
  for k = 0 to Array.length codes - 1 do
    let n = Array.unsafe_get opens k in
    if n > 0 then charge st n (Array.unsafe_get counters k);
    (Array.unsafe_get codes k) f
  done;
  if s.tail > 0 then charge st s.tail s.tail_counters

(* Write a runtime result list into result slots, with the tree-walker's
   arity error. *)
let set_result_list op (dst : (frame -> Rtval.t -> unit) array) (f : frame)
    rvs =
  let n = Array.length dst in
  let err () =
    error "%s produced %d values for %d results" (Op.name op)
      (List.length rvs) n
  in
  let rec go k = function
    | [] -> if k <> n then err ()
    | v :: rest ->
      if k >= n then err ()
      else begin
        dst.(k) f v;
        go (k + 1) rest
      end
  in
  go 0 rvs

(* An op's operands, boxed. *)
let boxed_operands ctx op : frame -> Rtval.t list =
  let gets = List.map (fun v -> box (slot ctx v)) (Op.operands op) in
  fun f -> List.map (fun get -> get f) gets

let rec force st cache entry =
  match entry.e_call with
  | Some c -> c
  | None ->
    let c = compile_function st cache entry.e_fn in
    entry.e_call <- Some c;
    c

and compile_function st cache fn =
  let fname = Option.value ~default:"?" (Func_d.func_name fn) in
  let sp_ref = ref None in
  let code =
    Span.with_span_sp ~name:"interp.compile" ~attrs:[ ("fn", fname) ]
      (fun sp ->
        sp_ref := Some sp;
        compile_fn_body st cache fn fname)
  in
  (match !sp_ref with
  | Some sp -> Metrics.observe "interp.compile_ms" (sp.Span.dur_s *. 1000.)
  | None -> ());
  Metrics.incr "interp.compiled_fns";
  code

and compile_fn_body st cache fn fname =
  let ctx =
    {
      st;
      cache;
      slots = Hashtbl.create 64;
      nints = 0;
      nfloats = 0;
      nvals = 0;
      preloads = [];
    }
  in
  let params =
    Array.of_list (List.map (fun p -> unbox (slot ctx p)) (Func_d.params fn))
  in
  let codes = compile_seq ctx (Func_d.body fn) in
  (* Constants are written once, here; each call's frame starts as a copy
     of the template. *)
  let template =
    {
      ints = Array.make ctx.nints 0;
      floats = Float.Array.make ctx.nfloats 0.0;
      vals = Array.make ctx.nvals Rtval.Unit;
    }
  in
  List.iter (fun preload -> preload template) ctx.preloads;
  let nparams = Array.length params in
  fun args ->
    let f =
      {
        ints = Array.copy template.ints;
        floats = Float.Array.copy template.floats;
        vals = Array.copy template.vals;
      }
    in
    let arity_err () =
      error "function %s called with %d arguments (expects %d)" fname
        (List.length args) nparams
    in
    let rec bind k = function
      | [] -> if k <> nparams then arity_err ()
      | v :: rest ->
        if k >= nparams then arity_err ()
        else begin
          params.(k) f v;
          bind (k + 1) rest
        end
    in
    bind 0 args;
    try
      run_seq st codes f;
      []
    with Tree.Return rvs -> rvs

(* Split a sequence into segments: each closes after an op that may
   raise or read [steps], and the sequence's end closes the last one.
   The profiling decision is paid here: under profiling each segment
   holds its ops' shared counter refs, resolved once. The cache is keyed
   on the profiling stamp ([get_cache]), so code compiled with profiling
   off, or holding refs a [Profile.reset] dropped, is not reused by a
   later run under another profiling state. *)
and compile_seq ctx ops : seq =
  let ops = Array.of_list ops in
  let compiled = Array.map (compile_op ctx) ops in
  let ncodes =
    Array.fold_left
      (fun n c -> match c with Elided -> n | Pure _ | Work _ -> n + 1)
      0 compiled
  in
  let codes = Array.make ncodes nop and opens = Array.make ncodes 0 in
  let counters = Array.make ncodes [||] in
  let profiled = !Ftn_obs.Profile.on in
  let counters_of first stop =
    if profiled then
      Array.init (stop - first) (fun i ->
          Ftn_obs.Profile.op_counter (Op.name ops.(first + i)))
    else [||]
  in
  (* The open segment starts at op [first]; [opener] is the index of its
     first code, or -1 while it has none. *)
  let k = ref 0 and first = ref 0 and opener = ref (-1) in
  let add code =
    if !opener < 0 then opener := !k;
    codes.(!k) <- code;
    incr k
  in
  let close stop =
    opens.(!opener) <- stop - !first;
    counters.(!opener) <- counters_of !first stop;
    first := stop;
    opener := -1
  in
  Array.iteri
    (fun i c ->
      match c with
      | Elided -> ()
      | Pure code -> add code
      | Work code ->
        add code;
        close (i + 1))
    compiled;
  let n = Array.length ops in
  if !opener >= 0 then close n;
  {
    codes;
    opens;
    tail = n - !first;
    counters;
    tail_counters = counters_of !first n;
  }

(* Handlers stage the op once, here: an op a handler takes runs its
   staged runner on boxed operands, and its default semantics are never
   compiled. *)
and compile_op ctx op : op_code =
  match Tree.stage_handlers ctx.st.Tree.handlers op with
  | None -> compile_default ctx op
  | Some run ->
    let operands = boxed_operands ctx op in
    let results = Array.map unbox (slot_array ctx (Op.results op)) in
    let st = ctx.st in
    Work (fun f -> set_result_list op results f (run st (operands f)))

(* The tree-walker's default semantics on boxed operands, bound into the
   scratch tree-frame where [Tree.exec_default] looks them up, for a leaf
   op that is malformed or whose operand or result files do not fit its
   compiled form. *)
and tree_semantics ctx op : code =
  let binds =
    List.map (fun v -> (Value.id v, box (slot ctx v))) (Op.operands op)
  in
  let sets = List.map (fun r -> (r, unbox (slot ctx r))) (Op.results op) in
  let st = ctx.st and scratch = ctx.cache.scratch in
  fun f ->
    let operands =
      List.map
        (fun (id, get) ->
          let v = get f in
          Hashtbl.replace scratch.Tree.vals id v;
          v)
        binds
    in
    Tree.exec_default st scratch op operands;
    List.iter (fun (r, set) -> set f (Tree.get scratch r)) sets

and compile_default ctx op : op_code =
  match Arith.kind op with
  | Some k -> compile_arith ctx op k
  | None -> compile_other ctx op

(* Each arith op compiles to one closure with its arithmetic, and its f32
   rounding, inline. *)
and compile_arith ctx op k : op_code =
  let sl v = slot ctx v in
  let d1 () = sl (Op.result1 op) in
  let fallback () = Work (tree_semantics ctx op) in
  (* A binary op with its operands in [operands] and its result in
     [result]: [code a b d ty] over their slot indices and the result
     type. Other files, or another operand count, take the fallback. *)
  let binary operands result code =
    match Op.operands op with
    | [ a; b ] -> (
      match (sl a, sl b, d1 ()) with
      | { file = fa; idx = a; _ }, { file = fb; idx = b; _ },
        { file = fd; idx = d; ty }
        when fa = operands && fb = operands && fd = result ->
        code a b d ty
      | _ -> fallback ())
    | _ -> fallback ()
  in
  let predicate of_string =
    Option.bind (Op.string_attr op "predicate") of_string
  in
  match k with
  | Arith.Constant -> (
    match Option.bind (Op.find_attr op "value") Arith.scalar_of_attr with
    | None -> fallback ()
    | Some s ->
      let rv = Tree.rtval_of_scalar s in
      let d = d1 () in
      let i = d.idx in
      let preload : code =
        match d.file with
        | Ints ->
          let n = Rtval.as_int rv in
          fun f -> si f i n
        | Floats ->
          let x = Rtval.as_float rv in
          fun f -> sf f i x
        | Vals -> fun f -> sv f i rv
      in
      ctx.preloads <- preload :: ctx.preloads;
      Elided)
  | Arith.Int_binop o ->
    binary Ints Ints (fun a b d ty ->
        (* Other arithmetic on i1 values is left to the fallback, which
           makes its result 0 or 1. *)
        if ty = Types.I1 && not (List.mem o [ Andi; Ori; Xori ]) then
          fallback ()
        else
          match o with
          | Arith.Addi -> Pure (fun f -> si f d (gi f a + gi f b))
          | Subi -> Pure (fun f -> si f d (gi f a - gi f b))
          | Muli -> Pure (fun f -> si f d (gi f a * gi f b))
          (* Division operators check the divisor first, like the
             tree-walker. *)
          | Divsi ->
            Work
              (fun f ->
                let y = gi f b in
                if y = 0 then error "integer division by zero"
                else si f d (gi f a / y))
          | Remsi ->
            Work
              (fun f ->
                let y = gi f b in
                if y = 0 then error "integer remainder by zero"
                else si f d (gi f a mod y))
          | Maxsi ->
            Pure
              (fun f ->
                let x = gi f a and y = gi f b in
                si f d (if x >= y then x else y))
          | Minsi ->
            Pure
              (fun f ->
                let x = gi f a and y = gi f b in
                si f d (if x <= y then x else y))
          (* On i1 values held as 0/1 these are exactly the tree-walker's
             boolean and/or/xor. *)
          | Andi -> Pure (fun f -> si f d (gi f a land gi f b))
          | Ori -> Pure (fun f -> si f d (gi f a lor gi f b))
          | Xori -> Pure (fun f -> si f d (gi f a lxor gi f b)))
  | Arith.Float_binop o ->
    (* f32-typed arithmetic rounds to single precision per operation *)
    binary Floats Floats (fun a b d ty ->
        Pure
          (match (o, ty) with
          | Arith.Addf, Types.F32 ->
            fun f -> sf f d (round_f32 (gf f a +. gf f b))
          | Addf, _ -> fun f -> sf f d (gf f a +. gf f b)
          | Subf, Types.F32 -> fun f -> sf f d (round_f32 (gf f a -. gf f b))
          | Subf, _ -> fun f -> sf f d (gf f a -. gf f b)
          | Mulf, Types.F32 -> fun f -> sf f d (round_f32 (gf f a *. gf f b))
          | Mulf, _ -> fun f -> sf f d (gf f a *. gf f b)
          | Divf, Types.F32 -> fun f -> sf f d (round_f32 (gf f a /. gf f b))
          | Divf, _ -> fun f -> sf f d (gf f a /. gf f b)
          | Maximumf, Types.F32 ->
            fun f -> sf f d (round_f32 (Float.max (gf f a) (gf f b)))
          | Maximumf, _ -> fun f -> sf f d (Float.max (gf f a) (gf f b))
          | Minimumf, Types.F32 ->
            fun f -> sf f d (round_f32 (Float.min (gf f a) (gf f b)))
          | Minimumf, _ -> fun f -> sf f d (Float.min (gf f a) (gf f b))))
  | Arith.Negf -> (
    match Op.operands op with
    | [ a ] -> (
      match (sl a, d1 ()) with
      | { file = Floats; idx = a; _ }, { file = Floats; idx = d; _ } ->
        Pure (fun f -> sf f d (-.gf f a))
      | _ -> fallback ())
    | _ -> fallback ())
  | Arith.Cmpi -> (
    match predicate Arith.int_pred_of_string with
    | None -> fallback ()
    | Some pred ->
      binary Ints Ints (fun a b d _ ->
          Pure
            (match pred with
            | Arith.Eq -> fun f -> si f d (if gi f a = gi f b then 1 else 0)
            | Arith.Ne -> fun f -> si f d (if gi f a <> gi f b then 1 else 0)
            | Arith.Slt -> fun f -> si f d (if gi f a < gi f b then 1 else 0)
            | Arith.Sle -> fun f -> si f d (if gi f a <= gi f b then 1 else 0)
            | Arith.Sgt -> fun f -> si f d (if gi f a > gi f b then 1 else 0)
            | Arith.Sge -> fun f -> si f d (if gi f a >= gi f b then 1 else 0))))
  | Arith.Cmpf -> (
    match predicate Arith.float_pred_of_string with
    | None -> fallback ()
    | Some pred ->
      (* Ordered predicates are false on a NaN operand, [une] true. *)
      binary Floats Ints (fun a b d _ ->
          Pure
            (match pred with
            | Arith.Oeq -> fun f -> si f d (if gf f a = gf f b then 1 else 0)
            | Arith.One ->
              fun f ->
                let x = gf f a and y = gf f b in
                si f d (if x < y || x > y then 1 else 0)
            | Arith.Une -> fun f -> si f d (if gf f a <> gf f b then 1 else 0)
            | Arith.Olt -> fun f -> si f d (if gf f a < gf f b then 1 else 0)
            | Arith.Ole -> fun f -> si f d (if gf f a <= gf f b then 1 else 0)
            | Arith.Ogt -> fun f -> si f d (if gf f a > gf f b then 1 else 0)
            | Arith.Oge -> fun f -> si f d (if gf f a >= gf f b then 1 else 0))))
  | Arith.Select -> (
    match Op.operands op with
    | [ c; t; e ] -> (
      match (sl c, sl t, sl e, d1 ()) with
      | { file = Ints; idx = c; _ }, t, e, d
        when t.file = d.file && e.file = d.file ->
        let t = t.idx and e = e.idx and d' = d.idx in
        Pure
          (match d.file with
          | Ints -> fun f -> si f d' (if gi f c <> 0 then gi f t else gi f e)
          | Floats ->
            fun f -> sf f d' (if gi f c <> 0 then gf f t else gf f e)
          | Vals -> fun f -> sv f d' (if gi f c <> 0 then gv f t else gv f e))
      | _ -> fallback ())
    | _ -> fallback ())
  | Arith.Cast c -> (
    (* As in the tree-walker, an i1 sign-extends to 0 or -1, and
       otherwise the result type alone decides the conversion: f32
       rounds, f16 and f64 convert, i1 tests non-zero and every other
       type converts to an integer. *)
    match Op.operands op with
    | [ a ] -> (
      let s = sl a and d = d1 () in
      let a = s.idx and i = d.idx in
      match (s.file, d.ty) with
      | Floats, Types.F32 -> Pure (fun f -> sf f i (round_f32 (gf f a)))
      | Ints, Types.F32 ->
        Pure (fun f -> sf f i (round_f32 (float_of_int (gi f a))))
      | Floats, (Types.F16 | Types.F64) -> Pure (fun f -> sf f i (gf f a))
      | Ints, (Types.F16 | Types.F64) ->
        Pure (fun f -> sf f i (float_of_int (gi f a)))
      | Ints, Types.I1 -> Pure (fun f -> si f i (if gi f a <> 0 then 1 else 0))
      | Ints, _ when c = Arith.Extsi && s.ty = Types.I1 && d.file = Ints ->
        Pure (fun f -> si f i (if gi f a <> 0 then -1 else 0))
      | Ints, _ when d.file = Ints -> Pure (fun f -> si f i (gi f a))
      (* a float to i1 is [Rtval.as_bool], which raises: left to the
         fallback *)
      | Floats, _ when d.file = Ints && d.ty <> Types.I1 ->
        Pure (fun f -> si f i (int_of_float (gf f a)))
      | _ -> fallback ())
    | _ -> fallback ())

and compile_other ctx op : op_code =
  let name = Op.name op in
  let sl v = slot ctx v in
  let d1 () = sl (Op.result1 op) in
  let fallback () = Work (tree_semantics ctx op) in
  (* A copy within one register file cannot fail; across files it
     unboxes with [Rtval.as_int] / [Rtval.as_float], which can. *)
  let move_op s d =
    if s.file = d.file then Pure (move s d) else Work (move s d)
  in
  match name with
  | "math.sqrt" | "math.exp" | "math.log" | "math.sin" | "math.cos"
  | "math.tanh" | "math.absf" -> (
    match (Op.operands op, Math_d.unary_fn name) with
    | [ a ], Some g -> (
      (* an f32 result rounds, as f32 arithmetic does *)
      match (sl a, d1 ()) with
      | { file = Floats; idx = a; _ }, { file = Floats; idx = d; ty } ->
        if ty = Types.F32 then Pure (fun f -> sf f d (round_f32 (g (gf f a))))
        else Pure (fun f -> sf f d (g (gf f a)))
      | _ -> fallback ())
    | _ -> fallback ())
  | "math.powf" -> (
    match Op.operands op with
    | [ a; b ] -> (
      match (sl a, sl b, d1 ()) with
      | { file = Floats; idx = a; _ }, { file = Floats; idx = b; _ },
        { file = Floats; idx = d; ty } ->
        if ty = Types.F32 then
          Pure (fun f -> sf f d (round_f32 (Float.pow (gf f a) (gf f b))))
        else Pure (fun f -> sf f d (Float.pow (gf f a) (gf f b)))
      | _ -> fallback ())
    | _ -> fallback ())
  | "memref.alloca" | "memref.alloc" -> (
    match Value.ty (Op.result1 op) with
    | Types.Memref mi ->
      let dyn = List.map (fun v -> int_reader (sl v)) (Op.operands op) in
      let set = unbox (d1 ()) in
      let elt = mi.Types.elt and mspace = mi.Types.memory_space in
      Work
        (fun f ->
          let dynamic = List.map (fun r -> r f) dyn in
          let shape = Tree.resolve_shape mi dynamic in
          set f (Rtval.Buf (Rtval.alloc_buffer ~memory_space:mspace elt shape)))
    | _ -> fallback ())
  | "memref.load" -> (
    match Op.operands op with
    | buf :: indices ->
      Work (compile_load ctx op (sl buf) (List.map sl indices))
    | [] -> fallback ())
  | "memref.store" -> (
    match Op.operands op with
    | value :: buf :: indices ->
      Work (compile_store ctx op (sl value) (sl buf) (List.map sl indices))
    | _ -> fallback ())
  | "memref.dim" -> (
    match Op.operands op with
    | [ buf; idx ] ->
      let b = box (sl buf) and i = int_reader (sl idx) in
      let set = unbox (d1 ()) in
      Work
        (fun f ->
          let bv = Rtval.as_buffer (b f) in
          let i = i f in
          match if i < 0 then None else List.nth_opt bv.Rtval.shape i with
          | Some n -> set f (Rtval.Int n)
          | None -> error "memref.dim out of range")
    | _ -> fallback ())
  | "memref.copy" | "memref.dma_start" -> (
    match Op.operands op with
    | [ src; dst ] ->
      let s = box (sl src) and d = box (sl dst) in
      Work
        (fun f ->
          Rtval.copy_into ~src:(Rtval.as_buffer (s f))
            ~dst:(Rtval.as_buffer (d f)))
    | _ -> fallback ())
  | "memref.cast" | "builtin.unrealized_conversion_cast" -> (
    match Op.operands op with
    | [ a ] -> move_op (sl a) (d1 ())
    | _ -> fallback ())
  | "scf.for" -> Work (compile_for ctx op)
  | "scf.if" -> Work (compile_if ctx op)
  | "scf.while" -> Work (compile_while ctx op)
  | "func.call" | "fir.call" -> Work (compile_call ctx op)
  | "func.return" -> (
    match List.map (fun v -> box (sl v)) (Op.operands op) with
    | [] -> Work (fun _ -> raise (Tree.Return []))
    | gets ->
      Work (fun f -> raise (Tree.Return (List.map (fun get -> get f) gets))))
  (* The ops that do nothing here: terminators, data markers, hls
     directives and the ops a function body never holds. *)
  | "memref.dealloc" | "memref.dma_wait" | "scf.yield" | "scf.condition"
  | "omp.yield" | "omp.terminator" | "omp.target_enter_data"
  | "omp.target_exit_data" | "omp.target_update" | "acc.enter_data"
  | "acc.exit_data" | "acc.update" | "acc.yield" | "acc.terminator"
  | "hls.pipeline" | "hls.unroll" | "hls.interface" | "hls.array_partition"
  | "hls.dataflow" | "func.func" | "builtin.module" ->
    Elided
  | "omp.map_info" | "acc.copy_info" -> (
    match Op.operands op with
    | var :: _ -> move_op (sl var) (d1 ())
    | [] -> fallback ())
  | "omp.bounds_info" ->
    let set = unbox (d1 ()) in
    Work (fun f -> set f (Rtval.Int 0))
  | "omp.target" -> Work (compile_region_entry ctx op "malformed omp.target")
  | "acc.parallel" ->
    Work (compile_region_entry ctx op "malformed acc.parallel")
  | "omp.target_data" | "acc.data" ->
    let body = compile_seq ctx (Op.region_body op 0) in
    let st = ctx.st in
    Work (fun f -> run_seq st body f)
  | "omp.parallel_do" -> Work (compile_parallel_do ctx op)
  | "acc.loop" -> Work (compile_acc_loop ctx op)
  | "hls.axi_protocol" -> (
    match Op.operands op with
    | [ a ] ->
      let a = int_reader (sl a) and set = unbox (d1 ()) in
      Work (fun f -> set f (Rtval.Proto (a f)))
    | _ -> fallback ())
  | "hls.stream_create" ->
    let set = unbox (d1 ()) in
    Work (fun f -> set f (Rtval.StreamQ (Queue.create ())))
  | "hls.stream_read" -> (
    match Op.operands op with
    | [ a ] ->
      let a = box (sl a) and set = unbox (d1 ()) in
      Work
        (fun f ->
          match a f with
          | Rtval.StreamQ q ->
            if Queue.is_empty q then error "read on an empty hls.stream"
            else set f (Queue.pop q)
          | _ -> error "hls.stream_read expects a stream")
    | _ -> fallback ())
  | "hls.stream_write" -> (
    match Op.operands op with
    | [ a; v ] ->
      let a = box (sl a) and v = box (sl v) in
      Work
        (fun f ->
          match a f with
          | Rtval.StreamQ q -> Queue.push (v f) q
          | _ -> error "hls.stream_write expects a stream and a value")
    | _ -> fallback ())
  | _ -> fallback ()

(* memref.load and memref.store specialised by rank: the buffer comes
   from the value file, indices from the int file, and no index list is
   built. A load writes the int or float file, a store reads a float, an
   i1 or another integer. *)
and compile_load ctx op buf indices : code =
  let d = slot ctx (Op.result1 op) in
  if
    buf.file <> Vals || d.file = Vals
    || List.exists (fun s -> s.file <> Ints) indices
  then tree_semantics ctx op
  else
    let b = buf.idx and r = d.idx and fl = d.file = Floats in
    match List.map (fun s -> s.idx) indices with
    | [] ->
      fun f ->
        let bv = buf_of (gv f b) in
        load_slot fl f r bv (lin0 bv.Rtval.shape)
    | [ i ] ->
      fun f ->
        let bv = buf_of (gv f b) in
        load_slot fl f r bv (lin1 bv.Rtval.shape (gi f i))
    | [ i; j ] ->
      fun f ->
        let bv = buf_of (gv f b) in
        load_slot fl f r bv (lin2 bv.Rtval.shape (gi f i) (gi f j))
    | idx ->
      let idx = Array.of_list idx in
      fun f ->
        let bv = buf_of (gv f b) in
        load_slot fl f r bv (lin_n f bv.Rtval.shape idx)

and compile_store ctx op value buf indices : code =
  if
    buf.file <> Vals || value.file = Vals
    || List.exists (fun s -> s.file <> Ints) indices
  then tree_semantics ctx op
  else
    let b = buf.idx and v = value.idx in
    let kind =
      match (value.file, value.ty) with
      | Floats, _ -> Float_elt
      | _, Types.I1 -> Bool_elt
      | _ -> Int_elt
    in
    match List.map (fun s -> s.idx) indices with
    | [] ->
      fun f ->
        let bv = buf_of (gv f b) in
        store_slot kind f v bv (lin0 bv.Rtval.shape)
    | [ i ] ->
      fun f ->
        let bv = buf_of (gv f b) in
        store_slot kind f v bv (lin1 bv.Rtval.shape (gi f i))
    | [ i; j ] ->
      fun f ->
        let bv = buf_of (gv f b) in
        store_slot kind f v bv (lin2 bv.Rtval.shape (gi f i) (gi f j))
    | idx ->
      let idx = Array.of_list idx in
      fun f ->
        let bv = buf_of (gv f b) in
        store_slot kind f v bv (lin_n f bv.Rtval.shape idx)

(* omp.target / acc.parallel: bind the region's block args from the op's
   operands, then run the body inline. *)
and compile_region_entry ctx op malformed : code =
  let blk = Op.region_block op 0 in
  if List.length blk.Op.args <> List.length (Op.operands op) then
    raisef "%s" malformed
  else begin
    let bind =
      copy_slots
        ~src:(slot_array ctx (Op.operands op))
        ~dst:(slot_array ctx blk.Op.args)
    in
    let body = compile_seq ctx blk.Op.body in
    let st = ctx.st in
    fun f ->
      bind f;
      run_seq st body f
  end

and compile_call ctx op : code =
  match Op.symbol_attr op "callee" with
  | None -> raisef "call without callee"
  | Some callee -> (
    match Tree.find_function ctx.st callee with
    | None -> raisef "call to unknown function %s" callee
    | Some fn ->
      let args = boxed_operands ctx op in
      let results = Array.map unbox (slot_array ctx (Op.results op)) in
      let entry = entry_for ctx.cache fn in
      let st = ctx.st and cache = ctx.cache in
      fun f ->
        let args = args f in
        set_result_list op results f ((force st cache entry) args))

and compile_for ctx op : code =
  match Scf.for_parts op with
  | None -> raisef "malformed scf.for"
  | Some parts ->
    if
      List.length parts.Scf.iter_inits <> List.length parts.Scf.iter_args
      || List.length (Op.results op) <> List.length parts.Scf.iter_args
    then raisef "malformed scf.for"
    else begin
      let lb_r = int_reader (slot ctx parts.Scf.lb) in
      let ub_r = int_reader (slot ctx parts.Scf.ub) in
      let step_r = int_reader (slot ctx parts.Scf.step) in
      let init_slots = slot_array ctx parts.Scf.iter_inits in
      let ind = slot ctx parts.Scf.induction in
      let arg_slots = slot_array ctx parts.Scf.iter_args in
      let res_slots = slot_array ctx (Op.results op) in
      let body = compile_seq ctx parts.Scf.body in
      (* Iter values live in the block-arg slots across iterations: a
         trailing yield writes them back, results read them at exit. *)
      let yield_copy =
        match List.rev parts.Scf.body with
        | last :: _
          when Scf.is_yield last
               && List.length (Op.operands last) = Array.length arg_slots ->
          copy_slots ~src:(slot_array ctx (Op.operands last)) ~dst:arg_slots
        | _ -> nop
      in
      let init_copy = copy_slots ~src:init_slots ~dst:arg_slots in
      let res_copy = copy_slots ~src:arg_slots ~dst:res_slots in
      let iv = iv_slot ind in
      let ind_id = Value.id parts.Scf.induction in
      let st = ctx.st in
      fun f ->
        let lb = lb_r f in
        let ub = ub_r f in
        let step = step_r f in
        if step <= 0 then error "scf.for requires a positive step";
        init_copy f;
        let i = ref lb in
        while !i < ub do
          set_iv f iv !i;
          run_seq st body f;
          yield_copy f;
          i := !i + step
        done;
        (match st.Tree.on_loop with
        | Some cb ->
          cb ~loop_key:ind_id ~iters:(max 0 ((ub - lb + step - 1) / step))
        | None -> ());
        res_copy f
    end

and compile_if ctx op : code =
  match Op.operands op with
  | [] -> raisef "malformed scf.if"
  | cond :: _ ->
    let c = slot ctx cond in
    let res_slots = slot_array ctx (Op.results op) in
    let compile_branch ops =
      let codes = compile_seq ctx ops in
      let after =
        match List.rev ops with
        | last :: _
          when Scf.is_yield last
               && List.length (Op.operands last) = Array.length res_slots ->
          copy_slots ~src:(slot_array ctx (Op.operands last)) ~dst:res_slots
        | _ ->
          if Array.length res_slots <> 0 then
            raisef "scf.if with results needs yields"
          else nop
      in
      (codes, after)
    in
    let then_codes, then_after = compile_branch (Op.region_body op 0) in
    let else_codes, else_after =
      compile_branch
        (if List.length (Op.regions op) > 1 then Op.region_body op 1 else [])
    in
    let st = ctx.st in
    let run_branch taken f =
      if taken then begin
        run_seq st then_codes f;
        then_after f
      end
      else begin
        run_seq st else_codes f;
        else_after f
      end
    in
    (match c.file with
    | Ints ->
      let c = c.idx in
      fun f -> run_branch (gi f c <> 0) f
    | Floats | Vals ->
      let test = bool_reader c in
      fun f -> run_branch (test f) f)

and compile_while ctx op : code =
  match Op.regions op with
  | [ [ before ]; [ after ] ] -> (
    let init_slots = slot_array ctx (Op.operands op) in
    let barg_slots = slot_array ctx before.Op.args in
    if Array.length barg_slots <> Array.length init_slots then
      raisef "malformed scf.while"
    else
      let bind_inits = copy_slots ~src:init_slots ~dst:barg_slots in
      let before_codes = compile_seq ctx before.Op.body in
      let res_slots = slot_array ctx (Op.results op) in
      let st = ctx.st in
      (* The tree-walker only discovers a malformed loop structure after
         running the before-region, so the error closures below execute it
         first — same steps, same side effects. *)
      match List.rev before.Op.body with
      | cond_op :: _ when String.equal (Op.name cond_op) "scf.condition"
        -> (
        match Op.operands cond_op with
        | c :: forwarded ->
          let test = bool_reader (slot ctx c) in
          let fwd_slots = slot_array ctx forwarded in
          let aarg_slots = slot_array ctx after.Op.args in
          let after_codes = compile_seq ctx after.Op.body in
          if
            Array.length fwd_slots <> Array.length aarg_slots
            || Array.length fwd_slots <> Array.length res_slots
          then raisef "malformed scf.while"
          else
            let fwd_to_after = copy_slots ~src:fwd_slots ~dst:aarg_slots in
            let fwd_to_res = copy_slots ~src:fwd_slots ~dst:res_slots in
            let yield_to_bargs =
              match List.rev after.Op.body with
              | y :: _
                when Scf.is_yield y
                     && List.length (Op.operands y)
                        = Array.length barg_slots ->
                Some
                  (copy_slots
                     ~src:(slot_array ctx (Op.operands y))
                     ~dst:barg_slots)
              | _ -> None
            in
            fun f ->
              bind_inits f;
              let continue_ = ref true in
              while !continue_ do
                run_seq st before_codes f;
                if test f then begin
                  fwd_to_after f;
                  run_seq st after_codes f;
                  match yield_to_bargs with
                  | Some cp -> cp f
                  | None -> error "scf.while body must end in scf.yield"
                end
                else begin
                  continue_ := false;
                  fwd_to_res f
                end
              done
        | [] ->
          fun f ->
            bind_inits f;
            run_seq st before_codes f;
            error "scf.condition needs a condition")
      | _ ->
        fun f ->
          bind_inits f;
          run_seq st before_codes f;
          error "scf.while before-region must end in scf.condition")
  | _ -> raisef "malformed scf.while"

(* Shared n-dimensional loop nest for omp.parallel_do / acc.loop:
   inclusive upper bounds, all bounds resolved up-front (matching the
   tree-walker's evaluation order), induction variables optional past the
   block-arg count. *)
and compile_nd_loop ctx ~step_err bound_vals iv_vals body_ops : code =
  let bounds =
    Array.of_list
      (List.map
         (fun (lb, ub, step) ->
           let r v = int_reader (slot ctx v) in
           (r lb, r ub, r step))
         bound_vals)
  in
  let ivs = slot_array ctx iv_vals in
  let body = compile_seq ctx body_ops in
  let st = ctx.st in
  let ndims = Array.length bounds in
  let rec mk k : (int * int * int) array -> frame -> unit =
    if k = ndims then fun _ f -> run_seq st body f
    else
      let inner = mk (k + 1) in
      let iv = if k < Array.length ivs then iv_slot ivs.(k) else Iv_none in
      fun b f ->
        let lb, ub, step = b.(k) in
        if step <= 0 then error "%s" step_err;
        let i = ref lb in
        while !i <= ub do
          set_iv f iv !i;
          inner b f;
          i := !i + step
        done
  in
  let runner = mk 0 in
  fun f ->
    let b = Array.map (fun (l, u, s) -> (l f, u f, s f)) bounds in
    runner b f

and compile_parallel_do ctx op : code =
  match Omp.loop_parts op with
  | None -> raisef "malformed omp.parallel_do"
  | Some parts ->
    let bound_vals =
      List.map2
        (fun (lb, ub) step -> (lb, ub, step))
        (List.combine parts.Omp.lbs parts.Omp.ubs)
        parts.Omp.steps
    in
    compile_nd_loop ctx ~step_err:"omp.parallel_do requires positive steps"
      bound_vals parts.Omp.ivs parts.Omp.loop_body

and compile_acc_loop ctx op : code =
  let collapse = Option.value ~default:1 (Op.int_attr op "collapse") in
  let blk = Op.region_block op 0 in
  let rec split i ops acc =
    if i = collapse then Some (List.rev acc)
    else
      match ops with
      | lb :: ub :: step :: rest -> split (i + 1) rest ((lb, ub, step) :: acc)
      | _ -> None
  in
  match split 0 (Op.operands op) [] with
  | None -> raisef "malformed acc.loop bounds"
  | Some bound_vals ->
    compile_nd_loop ctx ~step_err:"acc.loop requires positive steps"
      bound_vals blk.Op.args blk.Op.body

(* Public entry: run [fn] with [args] under the compiled engine, reusing
   the state's cache across calls and relaunches. *)
let call_function (st : Tree.state) fn args =
  let cache = get_cache st in
  let entry = entry_for cache fn in
  (match entry.e_call with
  | Some _ -> Metrics.incr "interp.compile_cache_hits"
  | None -> Metrics.incr "interp.compile_cache_misses");
  (force st cache entry) args
