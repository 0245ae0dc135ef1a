(* One seeded benchmark for the whole chain.

     dune exec bench/suite/suite.exe -- [--workload NAME] [--seed N]
       [--seconds S] [--trace [0|1]]

   Each selected workload runs in a child process of its own, one at a
   time. A child computes every reference output with the CPU
   interpreter, sets the workload up several times, then repeats it for
   [--seconds] seconds and checks every output. An untraced run reports
   the end-to-end metrics. A traced run alternates untraced and traced
   reps and reports per-layer metrics from spans the benchmark records
   around each public call. The last line of standard output is one
   JSON object with the keys "correct", "attempted", "failed" and
   "metrics"; the exit code is non-zero when an output was wrong or a
   child failed. *)

open Ftn_obs
open Bench_suite
module C = Core.Compiler
module Executor = Ftn_runtime.Executor
module Jobs = Ftn_runtime.Jobs
module Scheduler = Ftn_runtime.Scheduler

let workload_names = [ "saxpy-1m"; "sgesl-2048"; "compile-corpus"; "jobs-mix" ]
let n_setups = 5
let min_reps = 3
let out_dir = Filename.concat "bench" (Filename.concat "suite" "out")
let now = Unix.gettimeofday
let warn fmt = Fmt.epr ("suite: " ^^ fmt ^^ "@.")
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------------------------------------------------------------- *)
(* Instrumented calls: [c] is the benchmark's own collector in a traced
   rep and [None] otherwise. *)

let span c ?attrs name f =
  match c with
  | None -> f ()
  | Some collector -> snd (Layers.spanned ~collector ?attrs name f)

let compile c source =
  match c with
  | None -> C.compile source
  | Some collector -> Layers.compile ~collector source

let synthesise c art =
  match c with
  | None -> C.synthesise art
  | Some collector ->
    let sp, bs =
      Layers.spanned ~collector "hlsim.synth" (fun () -> C.synthesise art)
    in
    Layers.set_int sp "kernels" (List.length bs.Ftn_hlsim.Bitstream.kernels);
    bs

let hist_sum name =
  match Metrics.find name with
  | Some (Metrics.Histogram_v { sum; _ }) -> sum
  | _ -> 0.0

let runtime_counters () =
  let counter name = float_of_int (Metrics.counter_value name) in
  [
    ("steps", counter "interp.steps");
    ("closure_compile_ms", hist_sum "interp.compile_ms");
    ("cache_hits", counter "interp.compile_cache_hits");
    ("cache_misses", counter "interp.compile_cache_misses");
    ("device_allocs", counter "device.allocs");
    ("alloc_mb", Gc.allocated_bytes () /. 1e6);
  ]

(* [run] (an Executor.run) in a "runtime.exec" span that carries the
   interpreter and runtime counters as deltas around the call. *)
let execute c ~trace run =
  match c with
  | None -> run ()
  | Some collector ->
    let before = runtime_counters () in
    let sp, (r : Executor.result) =
      Layers.spanned ~collector ~attrs:[ ("trace", trace) ] "runtime.exec" run
    in
    List.iter2
      (fun (k, v0) (_, v1) -> Layers.set_num sp k (v1 -. v0))
      before (runtime_counters ());
    Layers.set_int sp "launches" r.kernel_launches;
    Layers.set_num sp "bytes_moved_mb"
      (float_of_int r.bytes_transferred /. 1e6);
    Layers.set_num sp "sim_s" r.device_time_s;
    Layers.set_num sp "sim_host_s" (r.transfer_time_s +. r.overhead_time_s);
    r

(* ---------------------------------------------------------------- *)
(* Workloads. [setup c] prepares a workload and returns its rep; [rep c]
   does the timed work and returns the check, which compares the outputs
   with the references (by source) once the clock has stopped. *)

type outcome = {
  attempted : int;  (** Programs run or jobs submitted. *)
  failed : int;
  sim_s : float;  (** Simulated device time; the makespan for jobs. *)
  code_bytes : int;
  job_latency_s : (float * float) option;
      (** Arrival-to-finish p50 and p99 of the job mix, simulated. *)
}

type check = (string -> string) -> outcome

type workload = {
  programs : Inputs.program list;  (** Every program it runs. *)
  setup : Span.t option -> Span.t option -> check;
}

let run_program c (p : Inputs.program) =
  try
    let art = compile c p.source in
    let bitstream = synthesise c art in
    let exec =
      execute c ~trace:p.name (fun () ->
          Executor.run ~host:art.C.host ~bitstream ())
    in
    Ok (art, exec)
  with e -> Error e

let check_programs programs results expected =
  List.fold_left2
    (fun o (p : Inputs.program) result ->
      let ok, sim, bytes =
        match result with
        | Ok (art, (exec : Executor.result)) ->
          let want = expected p.source in
          if exec.output <> want then
            warn "%s: output %S differs from the reference %S" p.name
              exec.output want;
          (exec.output = want, exec.device_time_s, Layers.code_bytes art)
        | Error e ->
          warn "%s raised %s" p.name (Printexc.to_string e);
          (false, 0.0, 0)
      in
      {
        o with
        attempted = o.attempted + 1;
        failed = (o.failed + if ok then 0 else 1);
        sim_s = o.sim_s +. sim;
        code_bytes = o.code_bytes + bytes;
      })
    {
      attempted = 0;
      failed = 0;
      sim_s = 0.0;
      code_bytes = 0;
      job_latency_s = None;
    }
    programs results

let program_workload programs =
  let rep c =
    let results =
      List.mapi
        (fun i (p : Inputs.program) ->
          span c "bench.program"
            ~attrs:[ ("trace", Fmt.str "%d:%s" i p.name) ]
            (fun () -> run_program c p))
        programs
    in
    check_programs programs results
  in
  { programs; setup = (fun _ -> rep) }

let jobs_config = { Jobs.default_config with devices = 4; queue_depth = 8 }

(* Share of the devices' simulated time spent running kernels. *)
let device_util (stats : Jobs.stats) =
  let devices = Scheduler.snapshot stats.scheduler in
  let kernel_s =
    List.fold_left
      (fun acc (d : Scheduler.device_snapshot) -> acc +. d.ds_kernel_s)
      0.0 devices
  in
  ratio kernel_s (float_of_int (List.length devices) *. stats.elapsed_s)

let check_jobs plan code_bytes (stats : Jobs.stats) expected =
  let want (j : Inputs.job) =
    expected Inputs.job_variants.(j.variant).Inputs.source
  in
  let ran = Hashtbl.of_seq (List.to_seq stats.results) in
  let failed =
    List.fold_left
      (fun n (j : Inputs.job) ->
        match Hashtbl.find_opt ran j.job_name with
        | Some (r : Executor.result) when r.output = want j -> n
        | Some r ->
          warn "job %s: output %S differs from the reference %S" j.job_name
            r.output (want j);
          n + 1
        | None ->
          warn "job %s did not run" j.job_name;
          n + 1)
      0 plan
  in
  let concatenated = String.concat "" (List.map want plan) in
  let failed =
    if stats.output <> concatenated then begin
      warn "the queue's output differs from the references in submission order";
      max failed 1
    end
    else failed
  in
  if stats.jobs_dropped + stats.jobs_shed > 0 then
    warn "%d jobs dropped, %d shed" stats.jobs_dropped stats.jobs_shed;
  {
    attempted = List.length plan;
    failed;
    sim_s = stats.elapsed_s;
    code_bytes;
    job_latency_s = Some (stats.p50_latency_s, stats.p99_latency_s);
  }

(* The variants are compiled once per setup; a rep is one Jobs.run over
   the whole plan, each job body an Executor.run of its variant. *)
let jobs_workload plan =
  let setup c =
    let compiled =
      Array.map
        (fun (p : Inputs.program) ->
          span c "bench.variant" ~attrs:[ ("trace", p.name) ] (fun () ->
              let art = compile c p.source in
              (art, synthesise c art)))
        Inputs.job_variants
    in
    let code_bytes =
      Array.fold_left (fun n (a, _) -> n + Layers.code_bytes a) 0 compiled
    in
    fun c ->
      let specs =
        List.map
          (fun (j : Inputs.job) ->
            let art, bitstream = compiled.(j.variant) in
            Jobs.job ~tenant:j.tenant ~deps:j.deps ~name:j.job_name
              (fun ?faults ~sched ~device ~start_s () ->
                execute c ~trace:j.job_name (fun () ->
                    Executor.run ?faults ~sched ~device ~start_s
                      ~host:art.C.host ~bitstream ())))
          plan
      in
      let stats =
        match c with
        | None -> Jobs.run ~config:jobs_config specs
        | Some collector ->
          let sp, stats =
            Layers.spanned ~collector "jobs.run" (fun () ->
                Jobs.run ~config:jobs_config specs)
          in
          Layers.set_num sp "device_util" (device_util stats);
          stats
      in
      check_jobs plan code_bytes stats
  in
  { programs = Array.to_list Inputs.job_variants; setup }

let make_workload name ~seed =
  let module Src = Ftn_linpack.Fortran_sources in
  match name with
  | "saxpy-1m" ->
    program_workload
      [ { Inputs.name; source = Src.saxpy ~n:1_000_000 } ]
  | "sgesl-2048" ->
    program_workload [ { Inputs.name; source = Src.sgesl ~n:2048 } ]
  | "compile-corpus" -> program_workload (Inputs.corpus ~seed)
  | "jobs-mix" -> jobs_workload (Inputs.jobs ~seed)
  | _ -> invalid_arg ("unknown workload " ^ name)

(* ---------------------------------------------------------------- *)
(* Per-layer metrics, read from the benchmark's spans. A unit is one
   root span (a setup or a rep); its table sums, per span name,
   "<name>:self", "<name>:dur", "<name>:n" and "<name>.<attr>" for every
   numeric attribute. *)

let units collector =
  let spans = Span.spans collector in
  let self = Hashtbl.of_seq (List.to_seq (Stats.self_times spans)) in
  let unit_of = Hashtbl.create 1024 in
  let roots = ref [] in
  List.iter
    (fun (sp : Span.span) ->
      let tbl =
        match sp.parent with
        | Some p -> Hashtbl.find unit_of p
        | None ->
          let tbl = Hashtbl.create 64 in
          roots := (sp.name, tbl) :: !roots;
          tbl
      in
      Hashtbl.replace unit_of sp.id tbl;
      let add k v =
        Hashtbl.replace tbl k
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
      in
      add (sp.name ^ ":self") (Hashtbl.find self sp.id);
      add (sp.name ^ ":dur") sp.dur_s;
      add (sp.name ^ ":n") 1.0;
      List.iter
        (fun (k, v) ->
          match float_of_string_opt v with
          | Some x when k <> "trace" -> add (sp.name ^ "." ^ k) x
          | _ -> ())
        sp.attrs)
    spans;
  List.rev !roots

(* (name, unit, the span that must occur in a unit for it to count,
   value from the unit's table) *)
let per_layer =
  let ms name = (name ^ "_ms", "ms", name, fun g -> g (name ^ ":self") *. 1e3) in
  let attr name unit_ gate key = (name, unit_, gate, fun g -> g (gate ^ "." ^ key)) in
  let stage st =
    let key k = "passes." ^ st ^ "." ^ k in
    [
      attr (key "ms") "ms" "passes.mid_end" (st ^ ".ms");
      attr (key "ops") "count" "passes.mid_end" (st ^ ".ops");
      attr (key "alloc_mb") "MB" "passes.mid_end" (st ^ ".alloc_mb");
    ]
  in
  List.concat
    [
      [
        ms "fortran.parse";
        ms "fortran.sema";
        ms "fortran.to_fir";
        ms "fortran.fir_to_core";
        attr "fortran.core_ops" "count" "fortran.fir_to_core" "ops";
        ms "ir.verify";
        attr "ir.rewrite.visited" "count" "passes.mid_end" "rewrite_visited";
        attr "ir.rewrite.fired" "count" "passes.mid_end" "rewrite_fired";
        ( "ir.rewrite.fire_ratio", "ratio", "passes.mid_end",
          fun g ->
            ratio (g "passes.mid_end.rewrite_fired")
              (g "passes.mid_end.rewrite_visited") );
        ms "passes.mid_end";
      ];
      List.concat_map stage Layers.stages;
      [
        ms "codegen.lower_device";
        ms "codegen.emit_llvm_ir";
        ms "codegen.llvm_compat";
        ms "codegen.host_cpp";
        ( "codegen.llvm_ir_kb", "kB", "codegen.emit_llvm_ir",
          fun g -> g "codegen.emit_llvm_ir.bytes" /. 1e3 );
        ( "codegen.host_cpp_kb", "kB", "codegen.host_cpp",
          fun g -> g "codegen.host_cpp.bytes" /. 1e3 );
        ms "hlsim.synth";
        attr "hlsim.kernels" "count" "hlsim.synth" "kernels";
        attr "interp.steps" "count" "runtime.exec" "steps";
        ( "interp.steps_per_s", "1/s", "runtime.exec",
          fun g -> ratio (g "runtime.exec.steps") (g "runtime.exec:self") );
        attr "interp.closure_compile_ms" "ms" "runtime.exec" "closure_compile_ms";
        ( "interp.cache_miss_ratio", "ratio", "runtime.exec",
          fun g ->
            ratio (g "runtime.exec.cache_misses")
              (g "runtime.exec.cache_hits" +. g "runtime.exec.cache_misses") );
        ms "runtime.exec";
        attr "runtime.exec_alloc_mb" "MB" "runtime.exec" "alloc_mb";
        attr "runtime.launches" "count" "runtime.exec" "launches";
        attr "runtime.bytes_moved_mb" "MB" "runtime.exec" "bytes_moved_mb";
        attr "runtime.device_allocs" "count" "runtime.exec" "device_allocs";
        ( "runtime.sim_host_share_pct", "%", "runtime.exec",
          fun g -> 100.0 *. ratio (g "runtime.exec.sim_host_s") (g "runtime.exec.sim_s") );
        ( "jobs.queue_self_pct", "%", "jobs.run",
          fun g -> 100.0 *. ratio (g "jobs.run:self") (g "jobs.run:dur") );
        attr "jobs.device_util" "ratio" "jobs.run" "device_util";
        ( "obs.coverage_pct", "%", "bench.rep",
          fun g ->
            100.0
            *. (1.0
               -. ratio
                    (g "bench.rep:self" +. g "bench.program:self")
                    (g "bench.rep:dur")) );
      ];
    ]

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Mean over the reps that entered [gate]; a layer no rep enters (the job
   mix compiles only while setting up) is measured over the setups. *)
let in_reps units gate =
  List.exists
    (fun (root, tbl) -> root = "bench.rep" && Hashtbl.mem tbl (gate ^ ":n"))
    units

let over_units units gate f =
  let root = if in_reps units gate then "bench.rep" else "bench.setup" in
  let values =
    List.filter_map
      (fun (name, tbl) ->
        if name = root && Hashtbl.mem tbl (gate ^ ":n") then
          Some (f (fun k -> Option.value ~default:0.0 (Hashtbl.find_opt tbl k)))
        else None)
      units
  in
  if values = [] then 0.0 else mean values

let layer_order =
  [ "fortran"; "ir"; "passes"; "codegen"; "hlsim"; "runtime"; "jobs"; "bench" ]

(* Self time per layer and rep, as a share of the traced rep's wall
   time; a layer only the setups enter shows its time per setup. *)
let pp_layer_table units =
  let rep_wall = over_units units "bench.rep" (fun g -> g "bench.rep:dur") in
  let names =
    List.concat_map
      (fun (_, tbl) ->
        Hashtbl.fold
          (fun k _ acc ->
            match String.index_opt k ':' with
            | Some i when String.sub k i (String.length k - i) = ":self" ->
              String.sub k 0 i :: acc
            | _ -> acc)
          tbl [])
      units
    |> List.filter (fun n -> n <> "bench.setup" && n <> "bench.variant")
    |> List.sort_uniq compare
  in
  Fmt.pr "  %-10s %10s %8s  %s@." "layer" "self ms" "% wall" "spans per rep";
  List.iter
    (fun layer ->
      let spans = List.filter (fun n -> Layers.layer_of n = layer) names in
      if spans <> [] then begin
        let self_s =
          List.fold_left
            (fun acc n -> acc +. over_units units n (fun g -> g (n ^ ":self")))
            0.0 spans
        in
        let share =
          if List.exists (in_reps units) spans then
            Fmt.str "%8.2f" (100.0 *. ratio self_s rep_wall)
          else "   setup"
        in
        let counts =
          List.map
            (fun n ->
              Fmt.str "%s=%g" n (over_units units n (fun g -> g (n ^ ":n"))))
            spans
        in
        Fmt.pr "  %-10s %10.3f %s  %s@." layer (self_s *. 1e3) share
          (String.concat " " counts)
      end)
    layer_order

(* ---------------------------------------------------------------- *)
(* A child: one workload, end to end. *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match In_channel.input_line ic with
    | None -> failwith "no VmHWM line in /proc/self/status"
    | Some line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
    | Some _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Run [f] as one unit: under a fresh ambient collector that is dropped
   afterwards (the spans the program records), and in a traced unit
   under a root span of the benchmark's collector. Returns the wall
   time and [f]'s result. *)
let timed_unit c ~root ~trace f =
  Span.with_collector (Span.create ()) (fun () ->
      let t0 = now () in
      let r =
        match c with
        | None -> f ()
        | Some collector ->
          Span.with_span ~collector ~attrs:[ ("trace", trace) ] ~name:root f
      in
      (now () -. t0, r))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let metric name unit_ value =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])

let run_child ~name ~seed ~seconds ~trace =
  let collector = if trace then Some (Span.create ()) else None in
  let references =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (p : Inputs.program) ->
        if not (Hashtbl.mem tbl p.source) then
          Hashtbl.add tbl p.source (fst (Core.Run.run_cpu p.source)))
      (make_workload name ~seed).programs;
    Hashtbl.find tbl
  in
  let attempted = ref 0 and failed = ref 0 in
  let finish (wall, check) =
    let o = check references in
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed;
    (wall, o)
  in
  let setups =
    List.init n_setups (fun i ->
        Gc.full_major ();
        let wall, (rep, check) =
          timed_unit collector ~root:"bench.setup" ~trace:(Fmt.str "setup-%d" i)
            (fun () ->
              let rep = (make_workload name ~seed).setup collector in
              (rep, rep collector))
        in
        ignore (finish (wall, check));
        (wall, rep))
  in
  let rep = snd (List.hd setups) in
  let run_rep c i =
    Gc.full_major ();
    finish
      (timed_unit c ~root:"bench.rep" ~trace:(Fmt.str "rep-%d" i) (fun () ->
           rep c))
  in
  (* Traced runs alternate untraced and traced reps, so the tracing
     overhead is measured under the same machine conditions. *)
  let start = now () in
  let rec loop i untraced traced =
    if i >= min_reps && now () -. start >= seconds then (untraced, traced)
    else
      let u = run_rep None i in
      let t = if trace then [ fst (run_rep collector i) ] else [] in
      loop (i + 1) (u :: untraced) (t @ traced)
  in
  let reps, traced = loop 0 [] [] in
  let walls = List.map fst reps in
  let attempted = !attempted and failed = !failed in
  let last = snd (List.hd reps) in
  let q1, q3 = Stats.quartiles walls in
  (* The fastest rep, not the median, is the end-to-end time: the host is
     shared, and its other tenants slow every rep by 20-60% for stretches
     of a minute or more, longer than a run. The median of a run follows
     how much of it fell in such a stretch; the fastest rep does not. *)
  let best = List.fold_left Float.min infinity walls in
  Fmt.pr "== %s (seed %d, %s)@." name seed
    (if trace then "traced" else "untraced");
  let metrics =
    if not trace then begin
      let setup_s = Stats.median (List.map fst setups) in
      Fmt.pr "  setup_s      %12.6f s   median of %d setups@." setup_s n_setups;
      Fmt.pr "  best_wall_s  %12.6f s   fastest of n=%d reps; median %.6f, q1 %.6f, q3 %.6f@."
        best (List.length walls) (Stats.median walls) q1 q3;
      let rss = peak_rss_mb () in
      Fmt.pr "  peak_rss_mb  %12.3f MB@." rss;
      let code_kb = float_of_int last.code_bytes /. 1e3 in
      Fmt.pr "  gen_code_kb  %12.3f kB@." code_kb;
      Fmt.pr "  sim_ms       %12.3f ms  (simulated device time%s)@."
        (last.sim_s *. 1e3)
        (if last.job_latency_s = None then "" else ": the queue's makespan");
      (match last.job_latency_s with
      | Some (p50, p99) ->
        Fmt.pr "  jobs_per_s   %12.1f jobs/s@."
          (float_of_int last.attempted /. best);
        Fmt.pr "  sim_job_p50_ms %10.3f ms@." (p50 *. 1e3);
        Fmt.pr "  sim_job_p99_ms %10.3f ms@." (p99 *. 1e3)
      | None -> ());
      Fmt.pr "  fail_rate    %12.6f  (%d of %d)@."
        (ratio (float_of_int failed) (float_of_int attempted))
        failed attempted;
      [
        metric "setup_s" "s" setup_s;
        metric "best_wall_s" "s" best;
        metric "peak_rss_mb" "MB" rss;
        metric "gen_code_kb" "kB" code_kb;
      ]
    end
    else begin
      let collector = Option.get collector in
      let units = units collector in
      let best_traced = List.fold_left Float.min infinity traced in
      let overhead = 100.0 *. ((best_traced /. best) -. 1.0) in
      Fmt.pr
        "  fastest traced rep %.6f s vs untraced %.6f s (%d pairs): overhead %.2f%%@."
        best_traced best (List.length traced) overhead;
      pp_layer_table units;
      let layer_metrics =
        List.map
          (fun (mname, unit_, gate, f) ->
            metric mname unit_ (over_units units gate f))
          per_layer
      in
      mkdir_p out_dir;
      Chrome_trace.write_file collector
        (Filename.concat out_dir ("trace-" ^ name ^ ".json"));
      layer_metrics @ [ metric "obs.trace_overhead_pct" "%" overhead ]
    end
  in
  Json.Obj
    [
      ("workload", Json.String name);
      ("seed", Json.Int seed);
      ("trace", Json.Bool trace);
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", Json.Obj metrics);
      ("setup_walls_s", Json.List (List.map (fun (w, _) -> Json.Float w) setups));
      ("rep_walls_s", Json.List (List.rev_map (fun w -> Json.Float w) walls));
    ]

(* ---------------------------------------------------------------- *)
(* The parent: one child per workload, one at a time. *)

let member key = function
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

(* Runs the child, relays its report and returns its JSON result, the
   last line of its output; [None] when it failed to produce one. *)
let spawn_child ~name ~seed ~seconds ~trace =
  let args =
    [|
      Sys.executable_name; "--child"; name; "--seed"; string_of_int seed;
      "--seconds"; Fmt.str "%g" seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec relay last =
    match In_channel.input_line ic with
    | Some line ->
      Option.iter print_endline last;
      relay (Some line)
    | None -> last
  in
  let last = relay None in
  close_in ic;
  match (snd (Unix.waitpid [] pid), Option.map Json.parse last) with
  | Unix.WEXITED 0, Some (Ok json) -> Some json
  | status, _ ->
    warn "workload %s: child %s" name
      (match status with
      | Unix.WEXITED n -> Fmt.str "exited with code %d" n
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> Fmt.str "killed by signal %d" n);
    None

let run_parent ~workloads ~seed ~seconds ~trace =
  let results =
    List.map (fun name -> (name, spawn_child ~name ~seed ~seconds ~trace)) workloads
  in
  let done_ = List.filter_map snd results in
  mkdir_p out_dir;
  Json.write_file
    (Filename.concat out_dir
       (Fmt.str "%s-%d.json" (if trace then "layers" else "results") seed))
    (Json.List done_);
  if List.length done_ < List.length results then exit 1;
  let int_of key j = match member key j with Some (Json.Int n) -> n | _ -> 0 in
  let sum key = List.fold_left (fun n j -> n + int_of key j) 0 done_ in
  let correct = List.for_all (fun j -> member "correct" j = Some (Json.Bool true)) done_ in
  let metrics =
    match results with
    | [ (_, Some j) ] -> Option.value ~default:(Json.Obj []) (member "metrics" j)
    | _ ->
      Json.Obj
        (List.concat_map
           (fun (name, j) ->
             match Option.bind j (member "metrics") with
             | Some (Json.Obj fields) ->
               List.map (fun (k, v) -> (name ^ "." ^ k, v)) fields
             | _ -> [])
           results)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (sum "attempted"));
            ("failed", Json.Int (sum "failed"));
            ("metrics", metrics);
          ]));
  exit (if correct then 0 else 1)

let usage () =
  Fmt.epr
    "usage: suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]@.\
     workloads: %s@."
    (String.concat ", " workload_names);
  exit 2

let () =
  let workloads = ref [] and seed = ref 1 and seconds = ref 25.0 in
  let trace = ref false and child = ref None in
  let workload w = if List.mem w workload_names then w else usage () in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workloads := !workloads @ [ workload w ];
      parse rest
    | "--child" :: w :: rest ->
      child := Some (workload w);
      parse rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n ->
        seed := n;
        parse rest
      | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0.0 ->
        seconds := s;
        parse rest
      | _ -> usage ())
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !child with
  | Some name ->
    print_endline
      (Json.to_string
         (run_child ~name ~seed:!seed ~seconds:!seconds ~trace:!trace))
  | None ->
    run_parent
      ~workloads:(if !workloads = [] then workload_names else !workloads)
      ~seed:!seed ~seconds:!seconds ~trace:!trace
