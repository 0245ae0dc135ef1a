(* Job queue for the multi-device runtime: admission control, per-tenant
   round-robin dispatch, latency accounting and a resilience/QoS layer
   (deadlines, tenant quotas, per-device circuit breakers, overload
   shedding) over a shared {!Scheduler}.

   A job is a named closure running one host program (usually
   Executor.run on a compiled module) against the shared scheduler; the
   queue decides *where* (least-loaded healthy device, gated by that
   device's circuit breaker) and *when* (after its dependencies finish
   and a slot in the device's bounded admission queue frees up) each job
   starts on the simulated timeline. Jobs are dispatched round-robin
   across tenants so one tenant's burst cannot starve another's queue,
   and every completion is observed into a private metrics registry so
   p50/p90/p99 tail latency comes out of the same histogram machinery
   the profiler uses.

   Resilience is policy on top of those mechanisms, and every feature is
   off by default so a default-config run is byte-identical to the
   pre-resilience queue:
   - a job whose admission wait would exceed its deadline is *shed* at
     [arrival + deadline], charged only that queue wait, and never runs;
   - a tenant at its in-flight cap waits for its own oldest completion
     before the next admission, whatever the device backlog;
   - each device's breaker trips open after consecutive bad jobs
     (retries / faults / degradation / drain), re-admits a half-open
     probe after a simulated cooldown, and quarantines the device once
     it has flapped too often;
   - when the aggregate queue depth crosses the shed watermark, the
     lowest-priority, furthest-past-deadline queued work is shed before
     it can grow the tail.

   Determinism: dispatch order depends only on the submission list
   (tenant cycle over FIFO queues), device choice only on simulated lane
   availability and breaker state with lowest-id tie-break, shedding
   only on simulated timestamps — so the same job list, config and fault
   seed produce byte-identical output and stats whatever the device
   count. *)

module Fault = Ftn_fault.Fault

type spec = {
  js_name : string;
  js_tenant : string;
  js_deps : string list;
  js_prio : int;
  js_deadline_s : float option;
  js_run :
    ?faults:Fault.plan ->
    sched:Scheduler.t ->
    device:Scheduler.device ->
    start_s:float ->
    unit ->
    Executor.result;
}

let job ?(tenant = "default") ?(deps = []) ?(prio = 0) ?deadline_s ~name run =
  {
    js_name = name;
    js_tenant = tenant;
    js_deps = deps;
    js_prio = prio;
    js_deadline_s = deadline_s;
    js_run = run;
  }

type config = {
  devices : int;
  queue_depth : int;
      (* in-flight jobs a device accepts before admission blocks *)
  fault_device : (int * Fault.plan) option;
  default_deadline_s : float option;
      (* queue-wide admission deadline for jobs without their own *)
  tenant_quota : int option;  (* max in-flight jobs per tenant *)
  tenant_share : float option;
      (* max fraction of total admission capacity per tenant *)
  slo_s : float option;  (* arrival-to-finish latency objective *)
  breaker : Breaker.config option;
  shed_watermark : int option;
      (* aggregate queued jobs above which overload shedding kicks in *)
}

let default_config =
  {
    devices = 1;
    queue_depth = 8;
    fault_device = None;
    default_deadline_s = None;
    tenant_quota = None;
    tenant_share = None;
    slo_s = None;
    breaker = None;
    shed_watermark = None;
  }

type tenant_stats = {
  t_name : string;
  t_run : int;
  t_shed : int;
  t_p50_s : float;
  t_p90_s : float;
  t_p99_s : float;
  t_slo_violations : int;
}

type stats = {
  jobs_run : int;
  jobs_dropped : int;
  jobs_shed : int;
  elapsed_s : float;
  throughput_jps : float;
  p50_latency_s : float;
  p90_latency_s : float;
  p99_latency_s : float;
  total_kernel_s : float;
  total_transfer_s : float;
  degraded_jobs : int;
  drained_jobs : int;
  slo_violations : int;
  shed_wait_s : float;
  sheds : Trace.shed list;
  tenants : tenant_stats list;
  breakers : Breaker.snapshot list;
  trace : Trace.t;
  output : string;
  results : (string * Executor.result) list;
  scheduler : Scheduler.t;
}

let tenant_key t = "sched.tenant." ^ t ^ ".latency_s"

let run ?(config = default_config) ?(diag = Ftn_diag.Diag_engine.default)
    specs =
  if config.queue_depth < 1 then invalid_arg "Jobs.run: queue_depth < 1";
  (match config.tenant_quota with
  | Some q when q < 1 -> invalid_arg "Jobs.run: tenant_quota < 1"
  | _ -> ());
  (match config.tenant_share with
  | Some s when s <= 0.0 || s > 1.0 ->
    invalid_arg "Jobs.run: tenant_share outside (0, 1]"
  | _ -> ());
  (match config.shed_watermark with
  | Some w when w < 1 -> invalid_arg "Jobs.run: shed_watermark < 1"
  | _ -> ());
  let sched = Scheduler.create ~devices:config.devices () in
  let registry = Ftn_obs.Metrics.create () in
  let trace = Trace.create () in
  let n = List.length specs in
  let results : Executor.result option array = Array.make n None in
  let specs_arr = Array.of_list specs in
  let breakers =
    match config.breaker with
    | None -> None
    | Some bc ->
      Some
        (Array.init config.devices (fun id ->
             Breaker.create ~device:id bc
               ~on_transition:(fun ~device ~time_s ~from_ ~to_ ~trips ->
                 Trace.record trace
                   (Trace.Breaker { device; from_; to_; trips; time_s });
                 Ftn_obs.Flight.recordf ~time_s ~device ~cat:"resilience"
                   "breaker %s -> %s (trip %d)" from_ to_ trips;
                 Ftn_obs.Metrics.incr "resilience.breaker_transitions";
                 if String.equal to_ "open" || String.equal to_ "quarantined"
                 then Ftn_obs.Metrics.incr "resilience.breaker_trips")))
  in
  let tenant_cap =
    let quota = Option.value ~default:max_int config.tenant_quota in
    let share =
      match config.tenant_share with
      | None -> max_int
      | Some s ->
        max 1 (int_of_float (float_of_int (config.devices * config.queue_depth) *. s))
    in
    min quota share
  in
  (* Tenant queues in first-appearance order; each holds submission
     indices in submission order. *)
  let tenants = ref [] in
  let queues : (string, int Queue.t) Hashtbl.t = Hashtbl.create 8 in
  (* Finish times of each tenant's admitted jobs — the quota gate pops
     the tenant's own oldest completion when the cap is reached. *)
  let tenant_inflight : (string, float Queue.t) Hashtbl.t = Hashtbl.create 8 in
  let submitted : (string, unit) Hashtbl.t = Hashtbl.create (max 8 n) in
  List.iteri
    (fun i s ->
      Hashtbl.replace submitted s.js_name ();
      let q =
        match Hashtbl.find_opt queues s.js_tenant with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add queues s.js_tenant q;
          Hashtbl.add tenant_inflight s.js_tenant (Queue.create ());
          tenants := s.js_tenant :: !tenants;
          q
      in
      Queue.push i q)
    specs;
  let tenants = List.rev !tenants in
  (* Finish time of each completed job, keyed by name — dependency
     arrivals read it, so a dep list naming an uncompleted job keeps the
     dependent parked in its tenant queue. *)
  let finished : (string, float) Hashtbl.t = Hashtbl.create (max 8 n) in
  (* Per-device admission FIFO: finish times of the jobs admitted to the
     device. Once [queue_depth] are in flight, the next admission gates
     on the oldest completion. *)
  let admission = Array.init config.devices (fun _ -> Queue.create ()) in
  let dropped = ref 0 in
  let shed_mark = Array.make n false in
  let shed_by_name : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let slo_violations = ref 0 in
  let tenant_slo : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let arrival_of spec =
    List.fold_left
      (fun acc d ->
        Float.max acc
          (Option.value ~default:0.0 (Hashtbl.find_opt finished d)))
      0.0 spec.js_deps
  in
  let effective_deadline spec =
    match spec.js_deadline_s with
    | Some _ as d -> d
    | None -> config.default_deadline_s
  in
  let shed_job idx ~reason ~time_s ~wait_s =
    let spec = specs_arr.(idx) in
    shed_mark.(idx) <- true;
    Hashtbl.replace shed_by_name spec.js_name ();
    Trace.record trace
      (Trace.Shed
         {
           job = spec.js_name;
           tenant = spec.js_tenant;
           reason;
           wait_s;
           time_s;
         });
    Ftn_obs.Flight.recordf ~time_s ~cat:"resilience" "shed %s (%s, tenant %s)"
      spec.js_name reason spec.js_tenant;
    Ftn_obs.Metrics.incr "resilience.sheds";
    Ftn_obs.Metrics.observe ~registry "resilience.shed_wait_s" wait_s
  in
  (* Breaker-aware placement: the non-failed, non-quarantined device
     whose compute lane (or breaker cooldown, whichever is later) frees
     first, ties to the lowest id. Without breakers this defers to
     {!Scheduler.pick_device} so the clean path is untouched, including
     its Invalid_host on a fully failed fleet. *)
  let pick_device_resilient () =
    match breakers with
    | None -> Some (Scheduler.pick_device sched)
    | Some bks ->
      let best = ref None in
      List.iter
        (fun (dev : Scheduler.device) ->
          if not dev.Scheduler.dev_failed then
            match Breaker.admit_time_s bks.(dev.Scheduler.dev_id) with
            | None -> ()
            | Some at ->
              let eff = Float.max dev.Scheduler.compute_avail_s at in
              (match !best with
              | Some (beff, _) when beff <= eff -> ()
              | _ -> best := Some (eff, dev)))
        (Scheduler.devices sched);
      Option.map snd !best
  in
  let run_one idx =
    let spec = specs_arr.(idx) in
    let arrival = arrival_of spec in
    match pick_device_resilient () with
    | None ->
      (* Every device is failed or quarantined: nothing can take the
         job, shed it rather than hang. *)
      shed_job idx ~reason:"no_device" ~time_s:arrival ~wait_s:0.0
    | Some device -> (
      let dev_id = device.Scheduler.dev_id in
      let faults =
        match config.fault_device with
        | Some (fd, plan) when dev_id = fd -> Some plan
        | _ -> None
      in
      let fifo = admission.(dev_id) in
      let dev_gate =
        if Queue.length fifo >= config.queue_depth then Queue.peek fifo
        else 0.0
      in
      let tq = Hashtbl.find tenant_inflight spec.js_tenant in
      let ten_gate =
        if Queue.length tq >= tenant_cap then Queue.peek tq else 0.0
      in
      let brk_gate =
        match breakers with
        | None -> 0.0
        | Some bks ->
          Option.value ~default:0.0 (Breaker.admit_time_s bks.(dev_id))
      in
      let start_s =
        Float.max arrival (Float.max dev_gate (Float.max ten_gate brk_gate))
      in
      match effective_deadline spec with
      | Some d when start_s -. arrival > d ->
        (* Honest cancellation: the job is abandoned the moment its
           deadline passes, charged only the wait — no slot is consumed
           and no device time accrues. *)
        shed_job idx ~reason:"deadline" ~time_s:(arrival +. d) ~wait_s:d
      | _ ->
        if Queue.length fifo >= config.queue_depth then ignore (Queue.pop fifo);
        if Queue.length tq >= tenant_cap then ignore (Queue.pop tq);
        (match breakers with
        | Some bks -> Breaker.note_admitted bks.(dev_id) ~now_s:start_s
        | None -> ());
        let res = spec.js_run ?faults ~sched ~device ~start_s () in
        (* Admission is charged to the device the job was enqueued on,
           even if a drain later moved it — the slot there was held
           regardless. *)
        Queue.push res.Executor.finish_s fifo;
        Queue.push res.Executor.finish_s tq;
        (match breakers with
        | Some bks ->
          let ok =
            res.Executor.retries = 0
            && (not res.Executor.degraded)
            && (not res.Executor.drained)
            && res.Executor.faults_injected = 0
          in
          Breaker.record bks.(dev_id) ~now_s:res.Executor.finish_s ~ok
        | None -> ());
        Hashtbl.replace finished spec.js_name res.Executor.finish_s;
        let latency = res.Executor.finish_s -. arrival in
        Ftn_obs.Metrics.observe ~registry "sched.job_latency_s" latency;
        Ftn_obs.Metrics.observe ~registry "sched.admission_wait_s"
          (start_s -. arrival);
        Ftn_obs.Metrics.observe ~registry (tenant_key spec.js_tenant) latency;
        (match config.slo_s with
        | Some slo when latency > slo ->
          incr slo_violations;
          Hashtbl.replace tenant_slo spec.js_tenant
            (1
            + Option.value ~default:0
                (Hashtbl.find_opt tenant_slo spec.js_tenant))
        | _ -> ());
        results.(idx) <- Some res)
  in
  (* Overload shedding: when more work is queued than the watermark
     allows, shed the excess — lowest priority first, then furthest past
     its deadline, then newest submission — before it can grow the
     tail. Shed entries stay in their tenant queues marked, and are
     discarded when they reach the head. *)
  let maybe_shed_overload () =
    match config.shed_watermark with
    | None -> ()
    | Some wm ->
      let queued =
        List.concat_map
          (fun t ->
            List.filter
              (fun i -> not shed_mark.(i))
              (List.of_seq (Queue.to_seq (Hashtbl.find queues t))))
          tenants
      in
      let depth = List.length queued in
      if depth > wm then begin
        let now = Scheduler.elapsed_s sched in
        let overdue idx =
          let spec = specs_arr.(idx) in
          match effective_deadline spec with
          | None -> Float.neg_infinity
          | Some d -> now -. (arrival_of spec +. d)
        in
        let victims =
          List.sort
            (fun a b ->
              let pa = specs_arr.(a).js_prio and pb = specs_arr.(b).js_prio in
              if pa <> pb then compare pa pb
              else
                let c = Float.compare (overdue b) (overdue a) in
                if c <> 0 then c else compare b a)
            queued
        in
        let rec take k = function
          | idx :: rest when k > 0 ->
            let wait =
              Float.max 0.0 (now -. arrival_of specs_arr.(idx))
            in
            shed_job idx ~reason:"overload" ~time_s:now ~wait_s:wait;
            take (k - 1) rest
          | _ -> ()
        in
        take (depth - wm) victims
      end
  in
  (* Round-robin dispatch: one ready job per tenant per cycle (shed
     entries at the head are discarded for free). A cycle with queued
     jobs but no progress means every head is waiting on a dependency
     that can never finish (cyclic or unknown) — those jobs are dropped,
     each with a structured diagnostic, rather than looping forever. *)
  let rec cycle () =
    maybe_shed_overload ();
    let progress = ref false in
    List.iter
      (fun tenant ->
        let q = Hashtbl.find queues tenant in
        while (not (Queue.is_empty q)) && shed_mark.(Queue.peek q) do
          ignore (Queue.pop q);
          progress := true
        done;
        if not (Queue.is_empty q) then begin
          let idx = Queue.peek q in
          let spec = specs_arr.(idx) in
          match
            List.find_opt (fun d -> Hashtbl.mem shed_by_name d) spec.js_deps
          with
          | Some _ ->
            (* A dependency was shed, so this job can never become
               ready: cascade the shed rather than park forever. *)
            ignore (Queue.pop q);
            shed_job idx ~reason:"dep_shed" ~time_s:(arrival_of spec)
              ~wait_s:0.0;
            progress := true
          | None ->
            if List.for_all (fun d -> Hashtbl.mem finished d) spec.js_deps
            then begin
              ignore (Queue.pop q);
              run_one idx;
              progress := true
            end
        end)
      tenants;
    let remaining =
      List.exists
        (fun t -> not (Queue.is_empty (Hashtbl.find queues t)))
        tenants
    in
    if remaining then
      if !progress then cycle ()
      else
        List.iter
          (fun t ->
            let q = Hashtbl.find queues t in
            Queue.iter
              (fun idx ->
                if not shed_mark.(idx) then begin
                  incr dropped;
                  let spec = specs_arr.(idx) in
                  match
                    List.find_opt
                      (fun d -> not (Hashtbl.mem finished d))
                      spec.js_deps
                  with
                  | Some dep when Hashtbl.mem submitted dep ->
                    Ftn_diag.Diag_engine.warning diag
                      (Fmt.str "job %S dropped: cyclic dependency on %S"
                         spec.js_name dep)
                  | Some dep ->
                    Ftn_diag.Diag_engine.warning diag
                      (Fmt.str "job %S dropped: unknown dependency %S"
                         spec.js_name dep)
                  | None ->
                    Ftn_diag.Diag_engine.warning diag
                      (Fmt.str
                         "job %S dropped: queued behind an undispatchable \
                          job for tenant %S"
                         spec.js_name spec.js_tenant)
                end)
              q;
            Queue.clear q)
          tenants
  in
  cycle ();
  let completed = ref [] in
  let output = Buffer.create 256 in
  let total_kernel = ref 0.0 and total_transfer = ref 0.0 in
  let degraded = ref 0 and drained = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | None -> ()
      | Some (res : Executor.result) ->
        completed := (specs_arr.(i).js_name, res) :: !completed;
        Buffer.add_string output res.Executor.output;
        total_kernel := !total_kernel +. res.Executor.kernel_time_s;
        total_transfer := !total_transfer +. res.Executor.transfer_time_s;
        if res.Executor.degraded then incr degraded;
        if res.Executor.drained then incr drained)
    results;
  let jobs_run = List.length !completed in
  let elapsed = Scheduler.elapsed_s sched in
  let quantile ?(key = "sched.job_latency_s") q =
    Option.value ~default:0.0
      (Ftn_obs.Metrics.histogram_quantile ~registry key q)
  in
  let sheds =
    List.filter_map
      (function Trace.Shed s -> Some s | _ -> None)
      (Trace.events trace)
  in
  let tenant_stats_list =
    List.map
      (fun t ->
        let key = tenant_key t in
        let t_run = ref 0 in
        Array.iteri
          (fun i r ->
            if r <> None && String.equal specs_arr.(i).js_tenant t then
              incr t_run)
          results;
        {
          t_name = t;
          t_run = !t_run;
          t_shed =
            List.length
              (List.filter (fun (s : Trace.shed) -> s.tenant = t) sheds);
          t_p50_s = quantile ~key 0.5;
          t_p90_s = quantile ~key 0.9;
          t_p99_s = quantile ~key 0.99;
          t_slo_violations =
            Option.value ~default:0 (Hashtbl.find_opt tenant_slo t);
        })
      tenants
  in
  {
    jobs_run;
    jobs_dropped = !dropped;
    jobs_shed = List.length sheds;
    elapsed_s = elapsed;
    throughput_jps =
      (if elapsed > 0.0 then float_of_int jobs_run /. elapsed else 0.0);
    p50_latency_s = quantile 0.5;
    p90_latency_s = quantile 0.9;
    p99_latency_s = quantile 0.99;
    total_kernel_s = !total_kernel;
    total_transfer_s = !total_transfer;
    degraded_jobs = !degraded;
    drained_jobs = !drained;
    slo_violations = !slo_violations;
    shed_wait_s =
      List.fold_left (fun acc (s : Trace.shed) -> acc +. s.wait_s) 0.0 sheds;
    sheds;
    tenants = tenant_stats_list;
    breakers =
      (match breakers with
      | None -> []
      | Some bks -> Array.to_list (Array.map Breaker.snapshot bks));
    trace;
    output = Buffer.contents output;
    results = List.rev !completed;
    scheduler = sched;
  }

let pp_stats fmt (s : stats) =
  let pp_slo fmt s =
    if s.slo_violations > 0 then
      Fmt.pf fmt "@,slo         %d violation%s" s.slo_violations
        (if s.slo_violations = 1 then "" else "s")
  in
  let pp_shed fmt s =
    if s.jobs_shed > 0 then
      Fmt.pf fmt "@,shed wait   %.3f us total" (s.shed_wait_s *. 1e6)
  in
  Fmt.pf fmt
    "@[<v>jobs        %d run, %d dropped, %d shed@,\
     elapsed     %.3f us (simulated makespan)@,\
     throughput  %.1f jobs/s (simulated)@,\
     latency     p50 %.3f us, p90 %.3f us, p99 %.3f us@,\
     kernel      %.3f us total@,\
     transfer    %.3f us total@,\
     degraded    %d job%s, %d drained%a%a@]"
    s.jobs_run s.jobs_dropped s.jobs_shed (s.elapsed_s *. 1e6)
    s.throughput_jps
    (s.p50_latency_s *. 1e6)
    (s.p90_latency_s *. 1e6)
    (s.p99_latency_s *. 1e6)
    (s.total_kernel_s *. 1e6)
    (s.total_transfer_s *. 1e6)
    s.degraded_jobs
    (if s.degraded_jobs = 1 then "" else "s")
    s.drained_jobs pp_slo s pp_shed s
