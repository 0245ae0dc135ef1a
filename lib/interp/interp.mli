(** IR interpreter: functionally executes modules at the core-dialect
    level.

    Default semantics cover arith, math, scf, memref and func, plus
    sequential OpenMP (omp.target executes inline, omp.parallel_do runs as
    an ordinary loop with Fortran's inclusive upper bound) so un-offloaded
    programs run as CPU references. hls directives are functional no-ops.
    device.* operations have no default semantics: the host runtime
    installs a {!handler} for them. A handler that takes an op replaces
    its default semantics, so embedders can also intercept DMA or
    external calls.

    Two execution engines share these semantics: [`Tree], the reference
    tree-walker ({!Tree}), and [`Compiled] (the default), which compiles
    each function body once into OCaml closures over typed register files
    — unboxed integer and float arrays plus an [Rtval.t] array for
    everything else ({!Compile}) — typically several times faster. On IR
    whose value types agree with its ops the engines are observationally
    equivalent: same results, same handler runs and [on_loop] callbacks,
    same error messages on executed malformed ops, and [steps] equal to
    the tree-walker's wherever it can be observed. The tree-walker counts
    one step per executed op before running it. The compiled engine
    charges a segment of ops at once: ops that cannot raise or read
    [steps], up to and including the next op that can. The step limit
    then fails with the same [steps] and profile counts. A runtime error
    of the interpreted program (an out-of-bounds access, a division by
    zero, an array too large to allocate) raises {!Interp_error} under
    both. *)

exception Interp_error of string

type domain =
  | All  (** Offer the handler every op. *)
  | Names of string list  (** Only ops with one of these names. *)

type engine = [ `Tree | `Compiled ]

type cache = Tree.cache = ..
(** Engine-private per-state storage (the compiled engine's function
    cache); opaque to callers. *)

type embedder = Tree.embedder = ..
(** What an embedding runtime binds to a state for the duration of one
    run: the executor extends it with its run context. Staged runners
    read the run through the state they are given, never by capturing
    it, so one state and its compiled code can serve many runs. *)

type embedder += Unbound  (** No run is bound. *)

type state = {
  modules : Ftn_ir.Op.t list;  (** Searched for function bodies, in order. *)
  handlers : handler list;
  mutable steps : int;
      (** Executed op count, as the tree-walker counts it; see above. *)
  max_steps : int;
  mutable on_loop : (loop_key:int -> iters:int -> unit) option;
      (** Called after each scf.for completes with the induction variable's
          id and the trip count — the runtime's timing probe. *)
  engine : engine;
  mutable exec_cache : cache;
  mutable embedder : embedder;  (** [Unbound] outside {!with_embedder}. *)
}

and handler = {
  h_domain : domain;
  h_stage : Ftn_ir.Op.t -> (state -> Rtval.t list -> Rtval.t list) option;
}
(** [h_stage op] stages an op of the handler's [h_domain]: [Some run]
    takes the op, and [run state operands] then executes it in place of
    the default semantics, returning its results; [None] declines, and
    the next handler or the default semantics gets the op.

    The contract:
    - whether a handler takes an op depends only on the op — its name,
      attributes and operand count;
    - staging does not raise and does not touch program state; a
      malformed op stages to a runner that raises when it executes, so
      dead malformed ops stay dead;
    - the compiled engine stages each op once, when its function is
      compiled, and the tree-walker stages it on every execution; so
      everything that depends only on the op belongs in staging;
    - a state and its compiled code may serve many runs, so a runner
      reaches its run (an output sink, a device context) through the
      state it is given, in its [embedder] slot, never by capturing it;
    - a [Fault.Error] with an unknown location that escapes a runner is
      re-raised at the op's location. *)

exception Return of Rtval.t list

val handler :
  ?domain:domain ->
  (Ftn_ir.Op.t -> (state -> Rtval.t list -> Rtval.t list) option) ->
  handler
(** Build a handler from its staging function; [domain] defaults to
    {!All}. *)

val calls : domain
(** The call ops ([func.call], [fir.call]) — the domain of intrinsic
    handlers. *)

val default_engine : unit -> engine
val set_default_engine : engine -> unit
(** Engine used by {!make} when [?engine] is omitted; initially
    [`Compiled]. *)

val make :
  ?handlers:handler list ->
  ?max_steps:int ->
  ?engine:engine ->
  Ftn_ir.Op.t list ->
  state

val find_function : state -> string -> Ftn_ir.Op.t option

val call_function : state -> Ftn_ir.Op.t -> Rtval.t list -> Rtval.t list
(** Execute a func.func with the given arguments; returns its results. *)

val run : state -> entry:string -> args:Rtval.t list -> Rtval.t list
(** Resolve [entry] by symbol name and call it. *)

val with_embedder : state -> embedder -> (unit -> 'a) -> 'a
(** [with_embedder state e f] runs [f] as one run of a state that serves
    many: [steps] restarts at 0, [on_loop] is cleared and [e] is bound.
    When [f] returns or raises, [e] is unbound and the compiled engine's
    fallback scratch is cleared, so no value of the run stays reachable
    from the state; its compiled functions stay for the next run. *)

val main_function : Ftn_ir.Op.t -> Ftn_ir.Op.t option
(** The function carrying the frontend's [ftn.main] marker. *)
