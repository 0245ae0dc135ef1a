(** Profiling master switch and per-op execution counters.

    When [!on] is false (the default), all profiling instrumentation in
    the interpreters, the rewrite engines and the pass manager reduces
    to a single boolean load, keeping the ≤5% overhead budget trivially
    when profiling is off and honest when it is on. *)

val on : bool ref
(** Read directly in hot loops; set through {!set_enabled}. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val op_counter : string -> int ref
(** The shared execution counter for an op name (created on first use).
    The compiled interpreter engine resolves this once at closure-
    compile time and bumps the ref from the compiled code. *)

val count_op : string -> unit
(** Bump an op's counter (hashtable lookup — callers gate on [!on]). *)

val ops : unit -> (string * int) list
(** All counted ops, sorted by name. *)

val total_ops : unit -> int

val top_ops : int -> (string * int) list
(** The [n] most-executed ops, descending by count. *)

val reset : unit -> unit
(** Drop every counter. Refs handed out by {!op_counter} earlier no
    longer count into {!ops}. *)

val stamp : unit -> int
(** The profiling state code is instrumented for: [-1] while profiling
    is off, else a number that changes with every {!reset}. Code that
    resolved its counters under another stamp counts into dropped refs
    or not at all, so the compiled interpreter engine recompiles when
    the stamp changes. *)
