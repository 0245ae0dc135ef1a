(* Pass manager: named module-to-module transformations with optional
   inter-pass verification, per-pass timing and IR dump hooks (the
   equivalent of mlir-opt's -pass-pipeline driver). Every pass execution
   is bracketed in an Ftn_obs wall-clock span; the stage_record list is a
   thin view over those spans, kept for existing consumers. *)

type t = {
  pass_name : string;
  run : Op.t -> Op.t;
}

type stage_record = {
  stage_name : string;
  elapsed_s : float;
  op_count : int;
  alloc_bytes : float;
      (* OCaml heap allocated while the pass ran (Gc.allocated_bytes
         delta); 0 for the synthetic "input" record *)
}

let make pass_name run = { pass_name; run }
let name p = p.pass_name
let run p m = p.run m

let count_ops m = Op.count (fun _ -> true) m

(* Attach pass identity to any located diagnostics escaping [f], so the
   driver can report which pipeline stage tripped. *)
let with_pass_context context f =
  try f () with
  | Ftn_diag.Diag.Diag_failure ds ->
    raise
      (Ftn_diag.Diag.Diag_failure
         (List.map (fun d -> Ftn_diag.Diag.add_note d context) ds))
  | Invalid_argument msg | Failure msg ->
    (* legacy unlocated failures still gain pass context *)
    raise
      (Ftn_diag.Diag.Diag_failure
         [ Ftn_diag.Diag.add_note (Ftn_diag.Diag.error msg) context ])

let run_pipeline ?(verify_between = false) ?on_stage passes m =
  let records = ref [] in
  let notify stage_name elapsed_s op_count alloc_bytes m =
    let r = { stage_name; elapsed_s; op_count; alloc_bytes } in
    records := r :: !records;
    match on_stage with Some f -> f r m | None -> ()
  in
  let initial_count = count_ops m in
  notify "input" 0.0 initial_count 0.0 m;
  (* The op count of stage N's output is stage N+1's input: compute each
     count once and thread it through the fold. *)
  let result, _ =
    List.fold_left
      (fun (m, ops_before) p ->
        let pass_span = ref None in
        (* delta of the rewrite-driver counters across this pass: how many
           ops the driver examined and how many patterns fired on its
           behalf (0 for passes not built on Rewrite) *)
        let visited0 = Ftn_obs.Metrics.counter_value "rewrite.ops_visited" in
        let fired0 = Ftn_obs.Metrics.counter_value "rewrite.patterns_fired" in
        let alloc0 = Gc.allocated_bytes () in
        let m' =
          Ftn_obs.Span.with_span_sp ~name:("pass." ^ p.pass_name)
            (fun sp ->
              pass_span := Some sp;
              with_pass_context
                (Fmt.str "while running pass '%s'" p.pass_name)
                (fun () -> p.run m))
        in
        let ops_after = count_ops m' in
        let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
        let visited =
          Ftn_obs.Metrics.counter_value "rewrite.ops_visited" - visited0
        in
        let fired =
          Ftn_obs.Metrics.counter_value "rewrite.patterns_fired" - fired0
        in
        (match !pass_span with
        | Some sp ->
          Ftn_obs.Span.set_attr sp ~key:"ops_in" (string_of_int ops_before);
          Ftn_obs.Span.set_attr sp ~key:"ops_out" (string_of_int ops_after);
          Ftn_obs.Span.set_attr sp ~key:"rewrite_ops_visited"
            (string_of_int visited);
          Ftn_obs.Span.set_attr sp ~key:"rewrite_patterns_fired"
            (string_of_int fired);
          Ftn_obs.Span.set_attr sp ~key:"alloc_bytes"
            (Printf.sprintf "%.0f" alloc_bytes);
          if !Ftn_obs.Profile.on then begin
            Ftn_obs.Metrics.observe
              ("pass." ^ p.pass_name ^ ".wall_ms")
              (sp.Ftn_obs.Span.dur_s *. 1e3);
            Ftn_obs.Metrics.observe
              ("pass." ^ p.pass_name ^ ".alloc_kb")
              (alloc_bytes /. 1024.)
          end;
          if ops_after < ops_before then
            Ftn_obs.Metrics.incr ~by:(ops_before - ops_after)
              "passes.ops_removed";
          Ftn_obs.Log.debugf
            "pass %s: %d -> %d ops, %.3f ms (%d rewrites over %d visits)"
            p.pass_name ops_before ops_after
            (sp.Ftn_obs.Span.dur_s *. 1e3)
            fired visited
        | None -> ());
        if verify_between then
          with_pass_context
            (Fmt.str "in IR verification after pass '%s'" p.pass_name)
            (fun () -> Verifier.verify_exn m');
        let elapsed =
          match !pass_span with
          | Some sp -> sp.Ftn_obs.Span.dur_s
          | None -> 0.0
        in
        notify p.pass_name elapsed ops_after alloc_bytes m';
        (m', ops_after))
      (m, initial_count) passes
  in
  (result, List.rev !records)

let run_pipeline_exn ?verify_between ?on_stage passes m =
  fst (run_pipeline ?verify_between ?on_stage passes m)

let pp_stage fmt r =
  Fmt.pf fmt "%-28s %6.2f ms  %5d ops" r.stage_name (r.elapsed_s *. 1000.)
    r.op_count;
  if r.alloc_bytes > 0.0 then
    Fmt.pf fmt "  %8.1f kB" (r.alloc_bytes /. 1024.)
