(* Human-readable reports for compiled and executed programs. *)

open Ftn_hlsim
open Ftn_runtime

let pp_stages fmt stages =
  Fmt.pf fmt "@[<v>%a@]" (Fmt.list Ftn_ir.Pass.pp_stage) stages

let pp_bitstream fmt (bs : Bitstream.t) =
  Fmt.pf fmt "bitstream %s for %s (%s frontend)@."
    bs.Bitstream.xclbin_name bs.Bitstream.device_name
    (Resources.string_of_frontend bs.Bitstream.frontend);
  List.iter
    (fun (k : Bitstream.kernel_design) ->
      Fmt.pf fmt "  kernel %s: %a@." k.Bitstream.kd_name Resources.pp
        k.Bitstream.kd_resources)
    bs.Bitstream.kernels

let pp_exec fmt (r : Executor.result) =
  Fmt.pf fmt
    "device time %.3f ms (kernel %.3f ms, transfers %.3f ms, overheads %.3f \
     ms); %d launches, %d bytes moved"
    (r.Executor.device_time_s *. 1e3)
    (r.Executor.kernel_time_s *. 1e3)
    (r.Executor.transfer_time_s *. 1e3)
    (r.Executor.overhead_time_s *. 1e3)
    r.Executor.kernel_launches r.Executor.bytes_transferred;
  (* Fault-injection runs report their recovery story; fault-free runs
     keep the historic one-line format. *)
  if
    r.Executor.faults_injected > 0 || r.Executor.retries > 0
    || r.Executor.degraded
  then
    Fmt.pf fmt
      "@.faults: %d injected, %d retries, %d cpu fallback%s (%.3f ms on \
       host)%s"
      r.Executor.faults_injected r.Executor.retries r.Executor.cpu_fallbacks
      (if r.Executor.cpu_fallbacks = 1 then "" else "s")
      (r.Executor.fallback_time_s *. 1e3)
      (if r.Executor.degraded then " — run degraded" else "")

(* --- scheduler report (ftnc --jobs) --- *)

let pp_sched fmt (stats : Jobs.stats) =
  Fmt.pf fmt "== scheduler ==@.%a@." Jobs.pp_stats stats;
  Fmt.pf fmt "devices:@.";
  List.iter
    (fun ds -> Fmt.pf fmt "  %a@." Scheduler.pp_device_snapshot ds)
    (Scheduler.snapshot stats.Jobs.scheduler);
  if List.length stats.Jobs.tenants > 1 then begin
    Fmt.pf fmt "tenants:@.";
    List.iter
      (fun (t : Jobs.tenant_stats) ->
        Fmt.pf fmt
          "  %-8s %4d run, %3d shed, p50 %.3f us, p90 %.3f us, p99 %.3f us%s@."
          t.Jobs.t_name t.Jobs.t_run t.Jobs.t_shed
          (t.Jobs.t_p50_s *. 1e6)
          (t.Jobs.t_p90_s *. 1e6)
          (t.Jobs.t_p99_s *. 1e6)
          (if t.Jobs.t_slo_violations > 0 then
             Fmt.str ", %d slo violations" t.Jobs.t_slo_violations
           else ""))
      stats.Jobs.tenants
  end;
  if stats.Jobs.breakers <> [] then begin
    Fmt.pf fmt "breakers:@.";
    List.iter
      (fun b -> Fmt.pf fmt "  %a@." Ftn_runtime.Breaker.pp_snapshot b)
      stats.Jobs.breakers
  end;
  if stats.Jobs.sheds <> [] then begin
    Fmt.pf fmt "sheds:@.";
    List.iter
      (fun (s : Trace.shed) ->
        Fmt.pf fmt "  %-12s tenant %s, %s, waited %.3f us@." s.Trace.job
          s.Trace.tenant s.Trace.reason (s.Trace.wait_s *. 1e6))
      stats.Jobs.sheds
  end

let sched_summary stats = Fmt.str "%a" pp_sched stats

(* --- profiling report (ftnc --profile) --- *)

let quantile_us name q =
  match Ftn_obs.Metrics.histogram_quantile name q with
  | Some v -> Fmt.str "%8.3f" (v *. 1e6)
  | None -> Fmt.str "%8s" "-"

let hist_count name =
  match Ftn_obs.Metrics.find name with
  | Some (Ftn_obs.Metrics.Histogram_v { count; _ }) -> count
  | _ -> 0

(* The device-active window in 60 characters, each naming the track
   that dominates its bin: K kernel, T transfer, O overhead,
   F cpu-fallback, '.' idle. Built from the spans the run's trace
   replays. *)
let pp_device_timeline fmt (exec : Executor.result) =
  let c = Ftn_obs.Span.create () in
  Trace.replay_spans ~collector:c exec.Executor.trace;
  let spans = Ftn_obs.Span.spans c in
  let t_end =
    List.fold_left
      (fun acc (sp : Ftn_obs.Span.span) ->
        Float.max acc (sp.start_s +. sp.dur_s))
      0.0 spans
  in
  if t_end > 0.0 then begin
    (* busy.(bin).(track): simulated seconds of each track in the bin *)
    let bins = 60 in
    let tracks = [| "kernel"; "transfer"; "overhead"; "fallback" |] in
    let busy = Array.make_matrix bins (Array.length tracks) 0.0 in
    let bin_w = t_end /. float_of_int bins in
    List.iter
      (fun (sp : Ftn_obs.Span.span) ->
        let track = Ftn_obs.Span.attr sp "track" in
        match Array.find_index (fun t -> Some t = track) tracks with
        | None -> ()
        | Some ti ->
          let s = sp.start_s and e = sp.start_s +. sp.dur_s in
          let b0 = max 0 (int_of_float (s /. bin_w)) in
          for b = b0 to min (bins - 1) (int_of_float (e /. bin_w)) do
            let lo = Float.max s (float_of_int b *. bin_w) in
            let hi = Float.min e (float_of_int (b + 1) *. bin_w) in
            if hi > lo then busy.(b).(ti) <- busy.(b).(ti) +. (hi -. lo)
          done)
      spans;
    let line =
      String.init bins (fun b ->
          let best = ref (-1) and best_t = ref 0.0 in
          Array.iteri
            (fun ti t -> if t > !best_t then (best := ti; best_t := t))
            busy.(b);
          if !best < 0 then '.' else "KTOF".[!best])
    in
    Fmt.pf fmt
      "@.device timeline (%.3f ms; K kernel, T transfer, O overhead, F \
       fallback, . idle):@.  |%s|@."
      (t_end *. 1e3) line
  end

(* The compute-unit occupancy block of the profile report: one unit per
   kernel, in first-use order, folded from the launch and fallback events
   of the run's trace. Occupancy is busy time over the run's device
   time, the sum of its charges. *)
let pp_compute_units fmt (exec : Executor.result) =
  let events = Trace.events exec.Executor.trace in
  let kernels =
    List.fold_left
      (fun acc -> function
        | (Trace.Launch { kernel; _ } | Trace.Fallback { kernel; _ })
          when not (List.mem kernel acc) -> kernel :: acc
        | _ -> acc)
      [] events
  in
  if kernels <> [] then Fmt.pf fmt "@.compute units:@.";
  List.iter
    (fun k ->
      let launches, busy_s, fallbacks =
        List.fold_left
          (fun ((n, busy_s, fallbacks) as acc) -> function
            | Trace.Launch { kernel; kernel_time_s; _ } when kernel = k ->
              (n + 1, busy_s +. kernel_time_s, fallbacks)
            | Trace.Fallback { kernel; _ } when kernel = k ->
              (n, busy_s, fallbacks + 1)
            | _ -> acc)
          (0, 0.0, 0) events
      in
      let window_s = exec.Executor.device_time_s in
      Fmt.pf fmt
        "  cu:%-16s %4d launches  busy %10.3f us  occupancy %5.1f%%%s@." k
        launches (busy_s *. 1e6)
        (if window_s > 0.0 then Float.min 1.0 (busy_s /. window_s) *. 100.
         else 0.0)
        (if fallbacks > 0 then Fmt.str "  (%d cpu fallbacks)" fallbacks
         else ""))
    (List.rev kernels)

let pp_profile fmt (run : Run.t) =
  let exec = run.Run.exec in
  Fmt.pf fmt "== profile ==@.";
  (* hot ops: interpreter dispatch counts, device + host combined *)
  let total = Ftn_obs.Profile.total_ops () in
  (match Ftn_obs.Profile.top_ops 12 with
  | [] -> Fmt.pf fmt "@.hot ops: none recorded (profiling off?)@."
  | tops ->
    Fmt.pf fmt "@.hot ops (%d executed):@." total;
    List.iter
      (fun (name, n) ->
        Fmt.pf fmt "  %-28s %9d  %5.1f%%@." name n
          (100.0 *. float_of_int n /. float_of_int (max 1 total)))
      tops);
  (* hottest rewrite patterns, by attributed time *)
  (match Ftn_ir.Rewrite.pattern_profile () with
  | [] -> ()
  | profile ->
    Fmt.pf fmt "@.hottest rewrite patterns:@.";
    List.iteri
      (fun i (name, attempts, fired, time_s) ->
        if i < 10 then
          Fmt.pf fmt "  %-32s %7.3f ms  %6d fired / %6d attempts@." name
            (time_s *. 1e3) fired attempts)
      profile);
  (* per-pass wall time, op counts and allocation *)
  Fmt.pf fmt "@.passes:@.";
  List.iter
    (fun r -> Fmt.pf fmt "  %a@." Ftn_ir.Pass.pp_stage r)
    run.Run.artifacts.Compiler.stages;
  (* per-kernel launch-latency quantiles *)
  let kernels = run.Run.bitstream.Bitstream.kernels in
  if kernels <> [] then begin
    Fmt.pf fmt "@.kernel launch latency (us):@.";
    Fmt.pf fmt "  %-20s %8s %8s %8s %8s@." "kernel" "launches" "p50" "p90"
      "p99";
    List.iter
      (fun (k : Bitstream.kernel_design) ->
        let h = "device.kernel." ^ k.Bitstream.kd_name ^ ".launch_latency_s" in
        Fmt.pf fmt "  %-20s %8d %s %s %s@." k.Bitstream.kd_name (hist_count h)
          (quantile_us h 0.5) (quantile_us h 0.9) (quantile_us h 0.99))
      kernels
  end;
  pp_compute_units fmt exec;
  pp_device_timeline fmt exec;
  (* transfer-vs-compute roofline summary *)
  let kt = exec.Executor.kernel_time_s
  and tt = exec.Executor.transfer_time_s in
  let bytes = exec.Executor.bytes_transferred in
  Fmt.pf fmt "@.roofline: %d bytes moved in %.3f ms (%.2f GB/s), compute \
              %.3f ms — %s@."
    bytes (tt *. 1e3)
    (if tt > 0.0 then float_of_int bytes /. tt /. 1e9 else 0.0)
    (kt *. 1e3)
    (if tt > kt then
       Fmt.str "transfer-bound (%.1fx compute)" (tt /. Float.max kt 1e-12)
     else if kt > 0.0 then
       Fmt.str "compute-bound (%.1fx transfer)" (kt /. Float.max tt 1e-12)
     else "no device work")

let profile_summary run = Fmt.str "%a" pp_profile run

let pp_run fmt (run : Run.t) =
  pp_bitstream fmt run.Run.bitstream;
  Fmt.pf fmt "%a@." pp_exec run.Run.exec;
  if String.length run.Run.exec.Executor.output > 0 then
    Fmt.pf fmt "program output:%s@." run.Run.exec.Executor.output

let summary run = Fmt.str "%a" pp_run run
