(* Public interpreter facade: shared types re-exported from [Tree] plus
   engine dispatch between the tree-walking reference engine ([Tree]) and
   the closure-compiled engine ([Compile]). Both are referenced directly
   here so linking the facade always links both engines. *)

open Ftn_ir

exception Interp_error = Tree.Interp_error

type domain = Tree.domain =
  | All
  | Names of string list

type engine = Tree.engine

type cache = Tree.cache = ..
type embedder = Tree.embedder = ..
type embedder += Unbound = Tree.Unbound

type state = Tree.state = {
  modules : Op.t list;  (** Searched for function bodies, in order. *)
  handlers : handler list;
  mutable steps : int;  (** Executed op count. *)
  max_steps : int;
  mutable on_loop : (loop_key:int -> iters:int -> unit) option;
      (** Called after each scf.for completes with the induction variable's
          id and the trip count — the runtime's timing probe. *)
  engine : engine;
  mutable exec_cache : cache;
  mutable embedder : embedder;
}

and handler = Tree.handler = {
  h_domain : domain;
  h_stage : Op.t -> (state -> Rtval.t list -> Rtval.t list) option;
}

exception Return = Tree.Return

let handler = Tree.handler
let calls = Tree.calls_domain
let default_engine = Tree.default_engine
let set_default_engine = Tree.set_default_engine
let make = Tree.make
let find_function = Tree.find_function
let main_function = Tree.main_function

let call_function state fn args =
  match state.engine with
  | `Tree -> Tree.call_function state fn args
  | `Compiled -> Compile.call_function state fn args

(* Run a function by name with the given arguments. *)
let run state ~entry ~args =
  match find_function state entry with
  | Some fn -> call_function state fn args
  | None -> Tree.error "entry function %s not found" entry

let with_embedder state e f =
  state.steps <- 0;
  state.on_loop <- None;
  state.embedder <- e;
  Fun.protect
    ~finally:(fun () ->
      state.embedder <- Unbound;
      Compile.release state)
    f
