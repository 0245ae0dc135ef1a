(* Greedy pattern-rewrite driver, in the spirit of MLIR's
   applyPatternsAndFoldGreedily. A pattern either leaves an op alone or
   replaces it by a list of new ops plus a value substitution that redirects
   the old results.

   The op tree is loaded once into a mutable node graph whose
   def/use/substitution side tables are dense arrays indexed by SSA value
   id (Arena), not hashtables. Patterns are indexed by root op name with
   the candidate list per root precomputed when the pattern set is
   compiled; a successful rewrite re-enqueues only the replacement ops,
   the users of redirected values and the producers feeding the erased op.
   Each node caches its materialised Op.t subtree; a mutation invalidates
   only the spine from the mutated node to the root, so repeat visits and
   the final export share every unchanged subtree instead of re-copying
   whole functions. A rewrite never rebuilds the block it happens in: the
   replaced node stays listed, dead, with its replacements recorded on
   it, and materialisation flattens them.

   Value redirections go through a substitution table whose [resolve] is
   cycle-guarded (two patterns replacing each other's results raise a
   located diagnostic naming the second pattern, instead of spinning) and
   path-compressed (long chains are pointed directly at their root). *)

type outcome = {
  new_ops : Op.t list;
  replacements : (Value.t * Value.t) list;
      (* old result -> replacement value *)
}

type ctx = {
  ctx_builder : Builder.t;
  ctx_def_of : Value.t -> Op.t option;
  ctx_const_of : Value.t -> Attr.t option;
  ctx_parents : unit -> Op.t list;
}

let builder ctx = ctx.ctx_builder
let def_of ctx v = ctx.ctx_def_of v
let const_of ctx v = ctx.ctx_const_of v
let parents ctx = ctx.ctx_parents ()

type pattern = {
  pat_name : string;
  pat_roots : string list;
  match_and_rewrite : ctx -> Op.t -> outcome option;
}

let pattern ?(roots = []) pat_name match_and_rewrite =
  { pat_name; pat_roots = roots; match_and_rewrite }

let replace_with ?(replacements = []) new_ops = { new_ops; replacements }

let erase = { new_ops = []; replacements = [] }

type folded = To_value of Value.t | To_constant of Attr.t

type folder = ctx -> Op.t -> folded list option

type config = {
  max_iterations : int;
  fold : folder option;
  is_trivially_dead : Op.t -> bool;
}

let default_trivially_dead op =
  (match Op.dialect op with "arith" | "math" -> true | _ -> false)
  && Op.regions op = []

let default_config =
  { max_iterations = 32; fold = None; is_trivially_dead = default_trivially_dead }

type stats = {
  ops_visited : int;
  patterns_fired : int;
  ops_folded : int;
  ops_erased : int;
  converged : bool;
}

(* The module op itself is not counted as a visit, so the visit totals
   (and the [ir.rewrite.visited] benchmark counter) count only the ops
   inside the module being rewritten. *)
let counted name = not (String.equal name "builtin.module")

(* --- cycle-guarded, path-compressing substitution resolution --- *)

let cycle_error ~pat_name ~loc chain =
  raise
    (Ftn_diag.Diag.Diag_failure
       [
         Ftn_diag.Diag.error ~loc
           (Fmt.str
              "substitution cycle detected while applying rewrite pattern \
               '%s' (replacement chain: %s)"
              pat_name
              (String.concat " -> "
                 (List.rev_map (fun v -> Fmt.str "%%%d" (Value.id v)) chain)));
       ])

(* Follow [v] through the union-find array [subst] (value id ->
   replacement) to its root. Values revisited along the way mean two
   rewrites redirected each other's results: report the pattern that
   closed the loop. All traversed entries are re-pointed at the root so
   later lookups are O(1). *)
let resolve_subst subst ~pat_name ~loc v =
  match Arena.get subst (Value.id v) with
  | None -> v
  | Some _ ->
    let rec follow visited v =
      match Arena.get subst (Value.id v) with
      | None -> (v, visited)
      | Some v' ->
        if List.exists (fun u -> Value.id u = Value.id v') (v :: visited) then
          cycle_error ~pat_name ~loc (v' :: v :: visited)
        else follow (v :: visited) v'
    in
    let root, visited = follow [] v in
    List.iter
      (fun u ->
        if Value.id u <> Value.id root then
          Arena.set subst (Value.id u) (Some root))
      visited;
    root

(* Record [old -> repl], detecting the two-pattern cycle a->b, b->a at
   insertion time: if [repl] already resolves back to [old], the rewrite
   that introduced this replacement closed a loop. *)
let record_subst subst ~pat_name ~loc old_v repl =
  let root = resolve_subst subst ~pat_name ~loc repl in
  if Value.id root = Value.id old_v then
    cycle_error ~pat_name ~loc [ root; repl; old_v ]
  else Arena.set subst (Value.id old_v) (Some root);
  root

(* Constant materialisation reuses the folded op's result value, so folds
   need no value redirection and leave SSA ids untouched. *)
let constant_op result attr =
  Op.make "arith.constant" ~attrs:[ ("value", attr) ] ~results:[ result ]

let is_constant_like ~operands ~regions ~results =
  operands = [] && regions = [] && List.length results = 1

(* Pattern bodies re-raise located diagnostics with rewrite context. *)
let with_pattern_context p op f =
  try f () with
  | Ftn_diag.Diag.Diag_failure ds ->
    raise
      (Ftn_diag.Diag.Diag_failure
         (List.map
            (fun d ->
              Ftn_diag.Diag.add_note d
                (Fmt.str "while applying rewrite pattern '%s' to '%s'"
                   p.pat_name op.Op.name))
            ds))

let warn_nonconverged ~budget last_fired =
  Ftn_obs.Metrics.incr "rewrite.nonconverged";
  Ftn_diag.Diag_engine.warning Ftn_diag.Diag_engine.default
    (Fmt.str "rewrite did not converge after %d op visits (last pattern to fire: %s)"
       budget
       (Option.value ~default:"<none>" last_fired))

(* --- per-pattern profiling --- *)

(* Firing counts and attributed wall time per pattern name, process-wide
   (patterns are shared across pass instances). Only populated while
   [Ftn_obs.Profile.on] — the timing calls would otherwise tax every
   match attempt of every compile. *)
type pattern_stat = {
  mutable ps_attempts : int;
  mutable ps_fired : int;
  mutable ps_time_s : float;
}

let pattern_stats : (string, pattern_stat) Hashtbl.t = Hashtbl.create 32

let stat_for name =
  match Hashtbl.find_opt pattern_stats name with
  | Some s -> s
  | None ->
    let s = { ps_attempts = 0; ps_fired = 0; ps_time_s = 0.0 } in
    Hashtbl.replace pattern_stats name s;
    s

let reset_pattern_profile () = Hashtbl.reset pattern_stats

let pattern_profile () =
  Hashtbl.fold
    (fun name s acc -> (name, s.ps_attempts, s.ps_fired, s.ps_time_s) :: acc)
    pattern_stats []
  |> List.sort (fun (na, _, _, a) (nb, _, _, b) ->
         match Float.compare b a with 0 -> String.compare na nb | c -> c)

(* One pattern attempt, with per-pattern profiling when enabled. *)
let run_pattern p ctx op =
  if not !Ftn_obs.Profile.on then
    with_pattern_context p op (fun () -> p.match_and_rewrite ctx op)
  else begin
    let t0 = Unix.gettimeofday () in
    let r = with_pattern_context p op (fun () -> p.match_and_rewrite ctx op) in
    let dt = Unix.gettimeofday () -. t0 in
    let st = stat_for p.pat_name in
    st.ps_attempts <- st.ps_attempts + 1;
    st.ps_time_s <- st.ps_time_s +. dt;
    (match r with Some _ -> st.ps_fired <- st.ps_fired + 1 | None -> ());
    r
  end

let publish_stats st =
  if st.ops_visited > 0 then
    Ftn_obs.Metrics.incr ~by:st.ops_visited "rewrite.ops_visited";
  if st.patterns_fired > 0 then
    Ftn_obs.Metrics.incr ~by:st.patterns_fired "rewrite.patterns_fired";
  if st.ops_folded > 0 then
    Ftn_obs.Metrics.incr ~by:st.ops_folded "rewrite.ops_folded";
  if st.ops_erased > 0 then
    Ftn_obs.Metrics.incr ~by:st.ops_erased "rewrite.ops_erased"

(* Patterns indexed by root op name. Compiled once per pattern set (not
   once per [run]): each root's candidate array already has the wildcard
   patterns merged in at their original positions, so the per-visit
   lookup is a single hashtable probe with no allocation or sorting. *)
type compiled = {
  by_root : (string, pattern array) Hashtbl.t;
  wildcard_only : pattern array;
}

let compile patterns =
  let rooted : (string, (int * pattern) list) Hashtbl.t = Hashtbl.create 16 in
  let wild = ref [] in
  List.iteri
    (fun i p ->
      match p.pat_roots with
      | [] -> wild := (i, p) :: !wild
      | roots ->
        List.iter
          (fun r ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt rooted r) in
            Hashtbl.replace rooted r ((i, p) :: prev))
          roots)
    patterns;
  let wild = List.rev !wild in
  let by_root = Hashtbl.create 16 in
  Hashtbl.iter
    (fun r rs ->
      let merged =
        List.merge
          (fun (i, _) (j, _) -> Int.compare i j)
          (List.rev rs) wild
      in
      Hashtbl.replace by_root r (Array.of_list (List.map snd merged)))
    rooted;
  { by_root; wildcard_only = Array.of_list (List.map snd wild) }

let candidates index name =
  match Hashtbl.find_opt index.by_root name with
  | Some a -> a
  | None -> index.wildcard_only

(* ===================== worklist engine ===================== *)

module Wl = struct
  type node = {
    nid : int;
    n_name : string;
    mutable n_operands : Value.t list;
    n_results : Value.t list;
    n_attrs : (string * Attr.t) list;
    mutable n_regions : nblock list list;
    n_parent : node option;
    n_block : nblock option;
    mutable n_live : bool;
    mutable n_queued : bool;
    mutable n_repl : node list;
        (* set when the node is spliced out: the nodes that stand in its
           place in its block, which still lists the dead node *)
    mutable n_cached : Op.t option;
        (* materialised subtree; invariant: a node with no cache has no
           cached ancestor (materialising a node caches every
           descendant, and invalidation clears the whole spine up to
           the root) *)
  }

  and nblock = {
    nb_label : string;
    nb_args : Value.t list;
    mutable nb_body : node list;
    mutable nb_spliced : bool;  (* [nb_body] lists a spliced-out node *)
  }

  type t = {
    eb : Builder.t;
    cfg : config;
    index : compiled;
    mutable next_nid : int;
    defs : node option Arena.t;  (* value id -> defining node *)
    uses : node list Arena.t;
        (* value id -> user nodes; lazily deleted (dead nodes linger and
           are filtered on read) *)
    subst : Value.t option Arena.t;  (* path-compressed union-find *)
    queue : node Queue.t;
    mutable root : node option;
    mutable cur : node option;  (* node being visited, for ctx_parents *)
    mutable visited : int;
    mutable fired : int;
    mutable folded : int;
    mutable erased : int;
    mutable last_fired : string option;
  }

  let create cfg index =
    {
      (* import reserves every value id it sees before any pattern runs,
         so no up-front Builder.for_op pre-walk is needed *)
      eb = Builder.create ();
      cfg;
      index;
      next_nid = 0;
      defs = Arena.create ~capacity:256 None;
      uses = Arena.create ~capacity:256 [];
      subst = Arena.create ~capacity:256 None;
      queue = Queue.create ();
      root = None;
      cur = None;
      visited = 0;
      fired = 0;
      folded = 0;
      erased = 0;
      last_fired = None;
    }

  let add_use e v n =
    let id = Value.id v in
    Arena.set e.uses id (n :: Arena.get e.uses id)

  let live_users e v =
    List.filter (fun n -> n.n_live) (Arena.get e.uses (Value.id v))

  let has_live_user e v =
    List.exists (fun n -> n.n_live) (Arena.get e.uses (Value.id v))

  let enqueue e n =
    if n.n_live && not n.n_queued then begin
      n.n_queued <- true;
      Queue.push n e.queue
    end

  (* Post-order (children first): the initial tree is visited bottom-up. *)
  let rec enqueue_tree e n =
    List.iter
      (fun blocks ->
        List.iter (fun nb -> List.iter (enqueue_tree e) nb.nb_body) blocks)
      n.n_regions;
    enqueue e n

  let resolve e v =
    resolve_subst e.subst ~pat_name:"<engine>" ~loc:Ftn_diag.Loc.unknown v

  (* Drop a node's cached materialisation and its ancestors' (theirs embed
     this subtree). Stops at the first uncached node: by the invariant its
     ancestors are uncached too. *)
  let rec invalidate n =
    match n.n_cached with
    | None -> ()
    | Some _ ->
      n.n_cached <- None;
      (match n.n_parent with Some p -> invalidate p | None -> ())

  let rec import e parent block (op : Op.t) =
    let operands = List.map (resolve e) op.Op.operands in
    let n =
      {
        nid = (e.next_nid <- e.next_nid + 1; e.next_nid);
        n_name = op.Op.name;
        n_operands = operands;
        n_results = op.Op.results;
        n_attrs = op.Op.attrs;
        n_regions = [];
        n_parent = parent;
        n_block = block;
        n_live = true;
        n_queued = false;
        n_repl = [];
        n_cached = None;
      }
    in
    List.iter (fun r -> Arena.set e.defs (Value.id r) (Some n)) n.n_results;
    List.iter (fun v -> add_use e v n) operands;
    List.iter
      (fun v -> Builder.reserve_above e.eb (Value.id v))
      (n.n_results @ operands);
    n.n_regions <-
      List.map
        (fun blocks ->
          List.map
            (fun (b : Op.block) ->
              let nb =
                {
                  nb_label = b.Op.label;
                  nb_args = b.Op.args;
                  nb_body = [];
                  nb_spliced = false;
                }
              in
              List.iter
                (fun v -> Builder.reserve_above e.eb (Value.id v))
                b.Op.args;
              nb.nb_body <-
                List.map (fun o -> import e (Some n) (Some nb) o) b.Op.body;
              nb)
            blocks)
        op.Op.regions;
    n

  (* A block entry stands for itself while live and for its recorded
     replacements once spliced out. *)
  let rec live_nodes m =
    if m.n_live then [ m ] else List.concat_map live_nodes m.n_repl

  (* Materialise a node's subtree, reusing every cached descendant. Cost
     is proportional to the invalidated spine, not the subtree size. A
     block that lists spliced-out nodes is flattened to its live nodes
     here, instead of being rebuilt on every splice. *)
  let rec materialize n =
    match n.n_cached with
    | Some op -> op
    | None ->
      let op =
        {
          Op.name = n.n_name;
          operands = n.n_operands;
          results = n.n_results;
          attrs = n.n_attrs;
          regions = List.map (List.map materialize_block) n.n_regions;
        }
      in
      n.n_cached <- Some op;
      op

  and materialize_block nb =
    let nodes =
      if nb.nb_spliced then List.concat_map live_nodes nb.nb_body
      else nb.nb_body
    in
    {
      Op.label = nb.nb_label;
      args = nb.nb_args;
      body = List.map materialize nodes;
    }

  (* Killing a node unregisters its defs; producers that just lost a user
     are re-enqueued so the driver can notice they became trivially dead
     (the use lists themselves are lazily deleted). A node that was
     already spliced out passes the kill on to its replacements, which
     sit in its place in the block. *)
  let rec kill e n =
    if not n.n_live then List.iter (kill e) n.n_repl
    else begin
      n.n_live <- false;
      List.iter
        (fun blocks -> List.iter (fun nb -> List.iter (kill e) nb.nb_body) blocks)
        n.n_regions;
      List.iter
        (fun v ->
          match Arena.get e.defs (Value.id v) with
          | Some d when d.n_live -> enqueue e d
          | _ -> ())
        n.n_operands;
      List.iter
        (fun r ->
          match Arena.get e.defs (Value.id r) with
          | Some d when d == n -> Arena.set e.defs (Value.id r) None
          | _ -> ())
        n.n_results
    end

  (* Replace [n] with [new_ops] in its containing block; enqueue the fresh
     nodes and the users of any result value a new op redefines in place.
     The block itself is not rebuilt: [n] stays in it, dead, with the new
     nodes recorded as its replacements, so a splice costs the size of
     the rewrite and not of the block. *)
  let splice e n new_ops =
    let old_results = n.n_results in
    match n.n_block with
    | None -> (
      match new_ops with
      | [ op ] ->
        kill e n;
        let n' = import e None None op in
        e.root <- Some n';
        enqueue_tree e n'
      | _ -> invalid_arg "Rewrite: top-level op was erased or split")
    | Some nb ->
      kill e n;
      (match n.n_parent with Some p -> invalidate p | None -> ());
      let news = List.map (import e n.n_parent (Some nb)) new_ops in
      n.n_repl <- news;
      nb.nb_spliced <- true;
      List.iter (enqueue_tree e) news;
      List.iter
        (fun r ->
          match Arena.get e.defs (Value.id r) with
          | Some d when d.n_live -> List.iter (enqueue e) (live_users e r)
          | _ -> ())
        old_results

  (* Redirect every user of [old_v], eagerly: their operand lists are
     rewritten in place (invalidating their cached subtrees) and they are
     re-enqueued. *)
  let record_replacement e ~pat_name ~loc old_v repl =
    let root = record_subst e.subst ~pat_name ~loc old_v repl in
    let users = live_users e old_v in
    Arena.set e.uses (Value.id old_v) [];
    List.iter
      (fun u ->
        u.n_operands <-
          List.map
            (fun v -> if Value.id v = Value.id old_v then root else v)
            u.n_operands;
        invalidate u;
        add_use e root u;
        enqueue e u)
      users

  let shallow n =
    {
      Op.name = n.n_name;
      operands = n.n_operands;
      results = n.n_results;
      attrs = n.n_attrs;
      regions = [];
    }

  (* One ctx serves the whole run; per-visit state lives in [e.cur]. *)
  let ctx_of e =
    let def_node v =
      let v = resolve e v in
      match Arena.get e.defs (Value.id v) with
      | Some d when d.n_live -> Some d
      | _ -> None
    in
    let rec up = function
      | None -> []
      | Some p -> shallow p :: up p.n_parent
    in
    {
      ctx_builder = e.eb;
      ctx_def_of = (fun v -> Option.map materialize (def_node v));
      ctx_const_of =
        (fun v ->
          match def_node v with
          | Some d
            when is_constant_like ~operands:d.n_operands ~regions:d.n_regions
                   ~results:d.n_results ->
            List.assoc_opt "value" d.n_attrs
          | _ -> None);
      ctx_parents =
        (fun () ->
          match e.cur with None -> [] | Some n -> up n.n_parent);
    }

  let apply_fold e n op folded =
    if List.length folded <> List.length n.n_results then
      invalid_arg
        (Fmt.str "Rewrite: fold of '%s' returned %d values for %d results"
           n.n_name (List.length folded) (List.length n.n_results));
    let loc = Op.loc op in
    let pat_name = Fmt.str "fold(%s)" n.n_name in
    let const_ops =
      List.concat
        (List.map2
           (fun r f ->
             match f with
             | To_value v ->
               record_replacement e ~pat_name ~loc r v;
               []
             | To_constant a -> [ constant_op r a ])
           n.n_results folded)
    in
    e.folded <- e.folded + 1;
    splice e n const_ops

  let visit e ctx n =
    let op = lazy (materialize n) in
    let folded =
      match e.cfg.fold with
      | Some f when n.n_results <> [] -> (
        match f ctx (Lazy.force op) with
        | Some folded ->
          apply_fold e n (Lazy.force op) folded;
          true
        | None -> false)
      | _ -> false
    in
    if (not folded) && n.n_live then begin
      let dead =
        List.for_all (fun r -> not (has_live_user e r)) n.n_results
        && n.n_parent <> None
        && e.cfg.is_trivially_dead (Lazy.force op)
      in
      if dead then begin
        e.erased <- e.erased + 1;
        splice e n []
      end
      else
        let ps = candidates e.index n.n_name in
        let rec go i =
          if i < Array.length ps then begin
            let p = ps.(i) in
            match run_pattern p ctx (Lazy.force op) with
            | None -> go (i + 1)
            | Some { new_ops; replacements } ->
              e.fired <- e.fired + 1;
              e.last_fired <- Some p.pat_name;
              let loc = Op.loc (Lazy.force op) in
              List.iter
                (fun (old_v, repl) ->
                  record_replacement e ~pat_name:p.pat_name ~loc old_v repl)
                replacements;
              splice e n new_ops
          end
        in
        go 0
    end

  let run cfg index top =
    let e = create cfg index in
    let root = import e None None top in
    e.root <- Some root;
    enqueue_tree e root;
    let initial = e.next_nid in
    let budget = cfg.max_iterations * (initial + 16) in
    let converged = ref true in
    let ctx = ctx_of e in
    (try
       while not (Queue.is_empty e.queue) do
         let n = Queue.pop e.queue in
         n.n_queued <- false;
         if n.n_live then begin
           if e.visited >= budget then begin
             converged := false;
             raise Exit
           end;
           if counted n.n_name then e.visited <- e.visited + 1;
           e.cur <- Some n;
           visit e ctx n
         end
       done
     with Exit -> warn_nonconverged ~budget e.last_fired);
    let result =
      match e.root with
      | Some r -> materialize r
      | None -> invalid_arg "Rewrite: lost the root op"
    in
    ( result,
      {
        ops_visited = e.visited;
        patterns_fired = e.fired;
        ops_folded = e.folded;
        ops_erased = e.erased;
        converged = !converged;
      } )
end

let apply_compiled_with_stats ?(config = default_config) compiled top =
  let result, st = Wl.run config compiled top in
  publish_stats st;
  (result, st)

let apply_compiled ?config compiled top =
  fst (apply_compiled_with_stats ?config compiled top)

let apply_with_stats ?config patterns top =
  apply_compiled_with_stats ?config (compile patterns) top

let apply ?config patterns top = fst (apply_with_stats ?config patterns top)
