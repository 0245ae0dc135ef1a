(* Profiling master switch and per-op execution counters.

   [on] is a plain bool ref so hot loops (the interpreters, the rewrite
   engines) can gate their instrumentation on a single load; everything
   costlier — hashtable lookups, gettimeofday — happens only when a user
   asked for a profile (ftnc --profile) or a test or the bench's
   profiling gate enabled it. *)

let on = ref false

(* Bumped by [reset], which drops the counter refs that instrumented
   code compiled earlier still holds. *)
let generation = ref 0

let set_enabled b = on := b
let enabled () = !on

let op_counts : (string, int ref) Hashtbl.t = Hashtbl.create 64

let op_counter name =
  match Hashtbl.find_opt op_counts name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace op_counts name r;
    r

(* Unconditional bump — callers gate on [!on] themselves so the tree
   interpreter pays only a branch when profiling is off. *)
let count_op name = incr (op_counter name)

let ops () =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) op_counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total_ops () = Hashtbl.fold (fun _ r acc -> acc + !r) op_counts 0

let top_ops n =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) op_counts []
  |> List.sort (fun (na, a) (nb, b) ->
         match Int.compare b a with 0 -> String.compare na nb | c -> c)
  |> List.filteri (fun i _ -> i < n)

let reset () =
  Hashtbl.reset op_counts;
  incr generation

let stamp () = if !on then !generation else -1
