(** Greedy pattern-rewrite driver (MLIR's [applyPatternsAndFoldGreedily]
    analogue). The driver is worklist-driven: patterns are indexed by the
    op name they root at (with a wildcard bucket for root-agnostic
    patterns), and a successful rewrite only re-enqueues the ops that could
    have been affected — the replacement ops, the users of any redirected
    values, and the producers of operands the erased op was keeping alive.
    Constant folding (via a per-pass {!folder} hook) and trivially-dead-op
    elimination run as part of the driver. *)

type outcome = {
  new_ops : Op.t list;  (** Replacement ops (empty to erase). *)
  replacements : (Value.t * Value.t) list;
      (** Redirections: uses of the first value become the second. *)
}

(** Context handed to patterns and fold hooks. *)
type ctx

val builder : ctx -> Builder.t
(** Fresh-value allocator scoped to the module being rewritten. *)

val def_of : ctx -> Value.t -> Op.t option
(** The op currently defining [v] (after pending redirections), if any.
    Block arguments and erased ops yield [None]. *)

val const_of : ctx -> Value.t -> Attr.t option
(** The "value" attribute of the constant-like op defining [v]: an op with
    no operands, no regions, a single result and a "value" attribute
    ([arith.constant], [llvm.mlir.constant], ...). *)

val parents : ctx -> Op.t list
(** The ops enclosing the op currently being visited, innermost first
    (ending at the top op [apply] was called on). The returned ops are
    shallow: name, operands, results and attributes are faithful, but
    their regions are empty — enough to test enclosing op names and
    symbol attributes without paying for a deep copy. *)

type pattern = {
  pat_name : string;
  pat_roots : string list;
      (** Op names this pattern can fire on; [[]] = any op (wildcard). *)
  match_and_rewrite : ctx -> Op.t -> outcome option;
}

val pattern :
  ?roots:string list -> string -> (ctx -> Op.t -> outcome option) -> pattern

val replace_with :
  ?replacements:(Value.t * Value.t) list -> Op.t list -> outcome

val erase : outcome
(** Drop the op entirely (only valid for ops whose results are unused). *)

(** One folded result: redirect to an existing value, or materialise a
    constant op (which reuses the folded op's result value, so no
    redirection is needed). *)
type folded = To_value of Value.t | To_constant of Attr.t

type folder = ctx -> Op.t -> folded list option
(** Returns one {!folded} per result of the op, or [None] if the op does
    not fold. *)

type config = {
  max_iterations : int;
      (** Scales the visit budget: the driver gives up after
          [max_iterations * (initial op count + 16)] op visits. *)
  fold : folder option;
  is_trivially_dead : Op.t -> bool;
      (** Erase the op when this holds and none of its results are used.
          The default accepts region-free [arith]/[math] ops. *)
}

val default_config : config
(** [max_iterations = 32], no folder, pure-arith/math dead-op predicate. *)

type stats = {
  ops_visited : int;
      (** Ops popped from the worklist and examined, revisits included.
          [builtin.module] ops are not counted. *)
  patterns_fired : int;
  ops_folded : int;
  ops_erased : int;  (** Trivially-dead ops removed by the driver. *)
  converged : bool;
}

val pattern_profile : unit -> (string * int * int * float) list
(** Per-pattern profiling data — [(name, attempts, fired, seconds)] —
    accumulated process-wide while [Ftn_obs.Profile.on] is set, sorted by
    attributed time descending. Empty when profiling never ran. *)

val reset_pattern_profile : unit -> unit

(** A pattern set with its root-name candidate index precomputed.
    Compiling once at module-toplevel (for pattern sets that don't depend
    on per-run options) removes the per-[apply] index construction from
    the hot path; the per-visit candidate lookup is a single hashtable
    probe returning a prebuilt array. *)
type compiled

val compile : pattern list -> compiled
(** Relative pattern order is preserved; wildcard (rootless) patterns are
    merged into every root's candidate array at their original
    positions. *)

val apply_compiled : ?config:config -> compiled -> Op.t -> Op.t

val apply_compiled_with_stats :
  ?config:config -> compiled -> Op.t -> Op.t * stats

val apply : ?config:config -> pattern list -> Op.t -> Op.t

val apply_with_stats : ?config:config -> pattern list -> Op.t -> Op.t * stats
(** Bumps the [rewrite.ops_visited], [rewrite.patterns_fired],
    [rewrite.ops_folded] and [rewrite.ops_erased] metrics counters, and on
    budget exhaustion [rewrite.nonconverged] plus a warning naming the last
    pattern that fired. A substitution cycle (two patterns redirecting each
    other's results) raises a located diagnostic naming the offending
    pattern instead of hanging. *)
