(* Host-module executor: interprets the host module produced by the
   pipeline, giving the device dialect its runtime semantics against the
   simulated FPGA. Kernels named by device.kernel_create are executed
   functionally through the interpreter (so results are real numbers) while
   the timing model charges the simulated device timeline for transfers,
   launches, allocations and kernel cycles.

   Timing is event-based and asynchronous: every charge becomes an
   {!Event.t} scheduled on one engine lane of the context's simulated
   device (see {!Scheduler}), so several contexts sharing a scheduler
   queue against each other and overlap transfers with compute.
   device.kernel_launch is a true async enqueue — it returns without
   advancing the host's timeline cursor — and device.kernel_wait
   genuinely blocks: the cursor jumps to the launch's completion event,
   and waiting on an unknown, foreign or never-launched handle raises a
   structured Invalid_host error. A single chained program on a fresh
   scheduler sees timings bit-identical to the old synchronous model.

   The executor is fault-tolerant: an optional Fault.plan injects
   deterministic alloc/transfer/launch failures, which the retry machinery
   absorbs (exponential backoff charged to the simulated overhead track,
   eviction after device OOM, host-CPU fallback for kernels that fail
   persistently). With multiple devices a persistently failing kernel
   first drains to a healthy peer — the device is marked failed, the
   kernel's buffers are re-staged at honest DMA cost and the attempt is
   retried there — and only degrades to the CPU when no peer is left.
   All runtime errors are the structured Fault.Error.

   The host module reaches the device through [device_handler], which
   the interpreter stages once per device op (once per compiled closure,
   or per execution under the tree-walker), as the paper's host printer
   turns each device op into an OpenCL call with arguments fixed at
   compile time. Everything that depends only on the op — its dispatch,
   attributes, data-environment key, rendered location, kernel design
   and labels — is resolved then; the runner does only the op's work.

   As the paper's host program loads its xclbin once, each artifact (a
   host module and its bitstream) gets one runtime [program], built on
   its first run and dropped with the artifact. It holds an interpreter
   state per engine, whose context-free handlers read the run's context
   through the state, and the artifact's record labels: span names and
   attribute lists, metric names and flight texts. [run] borrows the
   state for one run, so every function compiles once per artifact and
   all spans of one kernel or buffer share one attribute list. *)

open Ftn_ir
open Ftn_interp
open Ftn_hlsim
module Fault = Ftn_fault.Fault
module Injector = Ftn_fault.Injector

(* --- record labels ---

   Every name, attribute list, metric name and flight text the executor
   records that depends only on the artifact is rendered once and then
   shared by reference. *)

(* The span of one kind of charge: its name and track, the attributes
   after the track and the device, and the complete attribute list per
   device id, built on first use. *)
type span_label = {
  sl_name : string;
  sl_track : string;
  sl_attrs : (string * string) list;
  mutable sl_by_device : (string * string) list array;  (** [[]] if unbuilt *)
}

let span_label ~track ~name attrs =
  { sl_name = name; sl_track = track; sl_attrs = attrs; sl_by_device = [||] }

type kernel = {
  k_design : Bitstream.kernel_design;
  k_span : span_label;  (** The kernel's run on the compute lane. *)
  k_overhead : span_label;  (** Its launch overhead. *)
  k_latency_metric : string;  (** [device.kernel.<k>.launch_latency_s] *)
  k_time_metric : string;  (** [device.kernel.<k>.time_s] *)
  k_flight : string;  (** [launch <k>] *)
}

let kernel_labels (design : Bitstream.kernel_design) =
  let name = design.Bitstream.kd_name in
  let attrs = [ ("kernel", name) ] in
  {
    k_design = design;
    k_span = span_label ~track:"kernel" ~name attrs;
    k_overhead = span_label ~track:"overhead" ~name:"launch_overhead" attrs;
    k_latency_metric = "device.kernel." ^ name ^ ".launch_latency_s";
    k_time_metric = "device.kernel." ^ name ^ ".time_s";
    k_flight = "launch " ^ name;
  }

(* A buffer's transfer in one direction, or its allocation, at the byte
   count it last had. *)
type buffer_label = {
  b_bytes : int;
  b_span : span_label;
  b_flight : string;
}

type labels = {
  xclbin : string;
  kernels : (string * kernel) list;  (** By name, in bitstream order. *)
  h2d : (string, buffer_label) Hashtbl.t;  (** By buffer name. *)
  d2h : (string, buffer_label) Hashtbl.t;
  allocs : (string, buffer_label) Hashtbl.t;
  mutable device_ids : string array;
}

let labels_of (bitstream : Bitstream.t) =
  {
    xclbin = bitstream.Bitstream.xclbin_name;
    kernels =
      List.map
        (fun (d : Bitstream.kernel_design) ->
          (d.Bitstream.kd_name, kernel_labels d))
        bitstream.Bitstream.kernels;
    h2d = Hashtbl.create 8;
    d2h = Hashtbl.create 8;
    allocs = Hashtbl.create 8;
    device_ids = [||];
  }

(* [a] extended to hold index [i], a new slot [j] holding [fill j]. *)
let grow a i fill =
  let n = Array.length a in
  if i < n then a
  else Array.init (i + 1) (fun j -> if j < n then a.(j) else fill j)

(* [l]'s complete attribute list on device [id]: the track, the device,
   then its own. *)
let span_attrs labels l id =
  match if id < Array.length l.sl_by_device then l.sl_by_device.(id) else []
  with
  | _ :: _ as attrs -> attrs
  | [] ->
    labels.device_ids <- grow labels.device_ids id string_of_int;
    let attrs =
      ("track", l.sl_track) :: ("device", labels.device_ids.(id)) :: l.sl_attrs
    in
    l.sl_by_device <- grow l.sl_by_device id (fun _ -> []);
    l.sl_by_device.(id) <- attrs;
    attrs

(* The label of buffer [name] at [bytes] bytes in [tbl], rendered by
   [render] when the buffer is new or changed size. *)
let buffer_label tbl ~name ~bytes render =
  match Hashtbl.find_opt tbl name with
  | Some b when b.b_bytes = bytes -> b
  | _ ->
    let b = render name bytes in
    Hashtbl.replace tbl name b;
    b

(* Span ["<verb>:<name>"] with attributes buffer, [extra] and bytes;
   flight text ["<verb> <name> (<bytes> bytes)"]. *)
let render_buffer ~track ~verb ~extra name bytes =
  let n = string_of_int bytes in
  {
    b_bytes = bytes;
    b_span =
      span_label ~track ~name:(verb ^ ":" ^ name)
        ((("buffer", name) :: extra) @ [ ("bytes", n) ]);
    b_flight = verb ^ " " ^ name ^ " (" ^ n ^ " bytes)";
  }

let render_h2d =
  render_buffer ~track:"transfer" ~verb:"h2d" ~extra:[ ("direction", "h2d") ]

let render_d2h =
  render_buffer ~track:"transfer" ~verb:"d2h" ~extra:[ ("direction", "d2h") ]

let render_alloc = render_buffer ~track:"overhead" ~verb:"alloc" ~extra:[]

type kernel_handle = {
  kh_kernel : kernel;
  kh_args : Rtval.t list;
}

(* Kernel handles are allocated from a process-wide counter so a handle
   leaked from one context can never collide with one minted by another
   — which is what lets kernel_wait distinguish "foreign" from "mine". *)
let handle_counter = ref 0

type context = {
  model : Device_model.t;
      (** Timing model carried by the bitstream: kernels are always timed
          with the model of the device they were compiled for. *)
  bitstream : Bitstream.t;
  labels : labels;  (** The bitstream's record labels. *)
  data : Data_env.t;
  trace : Trace.t;
  handles : (int, kernel_handle) Hashtbl.t;
  launched : (int, Event.t) Hashtbl.t;
      (** Completion event of each launched kernel handle — what
          device.kernel_wait blocks on. *)
  obs : Ftn_obs.Span.t;
      (** Span collector (the ambient one at context creation): every
          simulated charge lands here as a sim-clock span. *)
  obs_base : int;
      (** First span id belonging to this context, so timing sums ignore
          spans recorded by earlier work in the same collector. *)
  sched : Scheduler.t;
  mutable device : Scheduler.device;
      (** Current placement; a drain after a persistent device fault
          migrates the context to a healthy peer. *)
  mutable cursor_s : float;
      (** The host program's position on the simulated timeline: where
          the next operation is submitted. Blocking operations advance
          it to their finish; async launches do not. *)
  mutable charged_s : float;
      (** Sum of every charge — the context's device time (busy time,
          not makespan), accumulated in charge order exactly like the
          old synchronous timeline. *)
  mutable pending : Event.t list;
      (** Completion events of async launches not yet waited on;
          transfers depend on them (a DMA must not start before the
          kernel producing or consuming its buffer retires). *)
  mutable kernel_time_s : float;
      (** Running per-track totals, updated by [charge] so timing queries
          are O(1); the span fold remains as a test cross-check. *)
  mutable transfer_time_s : float;
  mutable overhead_time_s : float;
  mutable fallback_time_s : float;
  mutable kernel_state : Interp.state option;
      (** Lazily-created interpreter used when kernels are launched through
          the host API rather than from an interpreted host module. *)
  engine : Interp.engine;
  sink : Intrinsics.sink;
  diag : Ftn_diag.Diag_engine.t;
  retry : Fault.retry_policy;
  injector : Injector.t option;
  mutable cur_loc : Ftn_diag.Loc.t;
      (** Location of the device op currently executing, so recovery
          warnings point at the launching source line. *)
  mutable cur_loc_str : string;
      (** [cur_loc] pre-rendered for flight-recorder entries ([""] when
          unknown) — rendered once per location change, not per event. *)
  mutable degraded : bool;
      (** This context ran a kernel on the host CPU. Per-job, not
          per-device: a peer's fallback never marks this context. *)
  mutable drained : bool;
  mutable retries : int;
  mutable cpu_fallbacks : int;
  cus : Cu_stats.t;  (** This context's compute-unit accounting. *)
}

type result = {
  output : string;
  device_time_s : float;
  kernel_time_s : float;
  transfer_time_s : float;
  overhead_time_s : float;
  fallback_time_s : float;
  kernel_launches : int;
  bytes_transferred : int;
  degraded : bool;
  drained : bool;
  retries : int;
  cpu_fallbacks : int;
  faults_injected : int;
  device : int;
  finish_s : float;
  trace : Trace.t;
  data : Data_env.t;
  cus : Cu_stats.snapshot list;
}

let make_context ~labels ?(echo = false) ?engine
    ?(diag = Ftn_diag.Diag_engine.default) ?faults
    ?(retry = Fault.default_retry) ?sched ?device ?(start_s = 0.0) bitstream =
  let obs = Ftn_obs.Span.current () in
  let sched =
    match sched with Some s -> s | None -> Scheduler.create ()
  in
  let device =
    match device with Some d -> d | None -> Scheduler.pick_device sched
  in
  device.Scheduler.dev_jobs <- device.Scheduler.dev_jobs + 1;
  {
    model = bitstream.Bitstream.model;
    bitstream;
    labels;
    data = Data_env.create ();
    trace = Trace.create ();
    handles = Hashtbl.create 8;
    launched = Hashtbl.create 8;
    obs;
    obs_base = Ftn_obs.Span.next_id obs;
    sched;
    device;
    cursor_s = start_s;
    charged_s = 0.0;
    pending = [];
    kernel_time_s = 0.0;
    transfer_time_s = 0.0;
    overhead_time_s = 0.0;
    fallback_time_s = 0.0;
    kernel_state = None;
    engine =
      (match engine with Some e -> e | None -> Interp.default_engine ());
    sink = Intrinsics.make_sink ~echo ();
    diag;
    retry;
    injector = Option.map Injector.create faults;
    cur_loc = Ftn_diag.Loc.unknown;
    cur_loc_str = "";
    degraded = false;
    drained = false;
    retries = 0;
    cpu_fallbacks = 0;
    cus = Cu_stats.create ();
  }

let create_context ?echo ?engine ?diag ?faults ?retry ?sched ?device ?start_s
    bitstream =
  make_context ~labels:(labels_of bitstream) ?echo ?engine ?diag ?faults
    ?retry ?sched ?device ?start_s bitstream

let context_device (ctx : context) = ctx.device
let context_scheduler (ctx : context) = ctx.sched

(* Charge [t] simulated seconds to the track of [l] ("kernel",
   "transfer", "overhead" or "fallback"): schedule an event on [lane] of
   the context's device (submitted at the cursor unless [submit_s] says
   the host enqueued it earlier), record a span at the event's scheduled
   start and bump the track's running total. Totals accumulate one
   addition per charge, in charge order — the same float additions the
   span fold over this context performs. The caller decides whether the
   operation blocks (advances the cursor to the event's finish). *)
let charge (ctx : context) ~lane (l : span_label) ?submit_s ?(deps = []) t =
  let submit_s = Option.value ~default:ctx.cursor_s submit_s in
  let track = l.sl_track and name = l.sl_name in
  let ev =
    Scheduler.submit ctx.sched ~device:ctx.device ~lane ~track ~label:name
      ~submit_s ~ready_s:ctx.cursor_s ~deps ~dur_s:t ()
  in
  ignore
    (Ftn_obs.Span.record_sim ~collector:ctx.obs
       ~attrs:(span_attrs ctx.labels l ctx.device.Scheduler.dev_id)
       ~name ~start_s:ev.Event.ev_start_s ~dur_s:t ());
  ctx.charged_s <- ctx.charged_s +. t;
  (match track with
  | "kernel" -> ctx.kernel_time_s <- ctx.kernel_time_s +. t
  | "transfer" -> ctx.transfer_time_s <- ctx.transfer_time_s +. t
  | "overhead" -> ctx.overhead_time_s <- ctx.overhead_time_s +. t
  | "fallback" -> ctx.fallback_time_s <- ctx.fallback_time_s +. t
  | _ -> ());
  ev

let block (ctx : context) (ev : Event.t) =
  ctx.cursor_s <- Float.max ctx.cursor_s ev.Event.ev_finish_s

(* A blocking charge: the host does not proceed until it retires. *)
let charge_sync (ctx : context) ~lane l ?deps t =
  block ctx (charge ctx ~lane l ?deps t)

(* Flight-recorder entry stamped with the device-timeline position, the
   owning device and the source location of the op currently executing. *)
let flight (ctx : context) ~cat fmt =
  Ftn_obs.Flight.recordf ~time_s:ctx.cursor_s ~loc:ctx.cur_loc_str
    ~device:ctx.device.Scheduler.dev_id ~cat fmt

let sim_spans (ctx : context) =
  List.filter
    (fun (sp : Ftn_obs.Span.span) ->
      sp.Ftn_obs.Span.id >= ctx.obs_base
      && sp.Ftn_obs.Span.clock = Ftn_obs.Span.Sim)
    (Ftn_obs.Span.spans ctx.obs)

(* Span-fold timing, kept as a cross-check for the running totals (the
   tests compare the two). *)
let track_time_from_spans (ctx : context) track =
  List.fold_left
    (fun acc (sp : Ftn_obs.Span.span) ->
      if Ftn_obs.Span.attr sp "track" = Some track then
        acc +. sp.Ftn_obs.Span.dur_s
      else acc)
    0.0 (sim_spans ctx)

let device_time (ctx : context) = ctx.charged_s
let kernel_time (ctx : context) = ctx.kernel_time_s
let transfer_time (ctx : context) = ctx.transfer_time_s
let overhead_time (ctx : context) = ctx.overhead_time_s
let fallback_time (ctx : context) = ctx.fallback_time_s

(* Where the context's work (including unwaited launches) retires. *)
let finish_time (ctx : context) =
  List.fold_left
    (fun acc (ev : Event.t) -> Float.max acc ev.Event.ev_finish_s)
    ctx.cursor_s ctx.pending

(* --- fault injection and retry --- *)

(* Account for one injected fault: metrics, trace, and — for a hung
   kernel — the watchdog timeout the device burns before the failure is
   even observable (charged on the compute engine, where the kernel
   hung). Other fault kinds are detected immediately. *)
let note_fault (ctx : context) ~name (fault : Fault.fault) =
  let code = Fault.kind_code fault.Fault.kind in
  Ftn_obs.Metrics.incr "fault.injected";
  Ftn_obs.Metrics.incr ("fault." ^ code);
  let cost =
    match fault.Fault.kind with
    | Fault.Kernel_timeout -> ctx.retry.Fault.timeout_s
    | Fault.Alloc_failure | Fault.Transfer_error | Fault.Launch_failure -> 0.0
  in
  if cost > 0.0 then
    charge_sync ctx ~lane:Event.Compute
      (span_label ~track:"overhead" ~name:("watchdog:" ^ name)
         [ ("fault", code) ])
      cost;
  Trace.record ctx.trace
    (Trace.Fault
       { target = name; kind = code; attempt = fault.Fault.attempt;
         time_s = cost });
  flight ctx ~cat:"fault" "%s on %s" (Fault.describe_fault fault) name;
  Ftn_obs.Log.debugf "injected %s on %s" (Fault.describe_fault fault) name

(* Run one device operation under the fault plan: arm the injector once
   for the logical operation (a retry is the same occurrence), then
   attempt it up to the retry budget. The injector is consulted *before*
   [f] runs, so a failed attempt performs no work and charges nothing but
   exponential backoff on the overhead track — the kernel and transfer
   tracks are only ever charged by the attempt that succeeds, which is
   what keeps retry accounting honest. [recover] runs between attempts
   and may cure the token (e.g. eviction after a device OOM, or a queue
   drain to a peer device). *)
let with_faults (ctx : context) ~site ?kernel ~name
    ?(recover = fun _ _ -> ()) f =
  match ctx.injector with
  | None -> Ok (f ())
  | Some inj ->
    let token = Injector.arm inj ~site ?kernel () in
    let max_attempts = max 1 ctx.retry.Fault.max_attempts in
    let rec attempt_loop attempt =
      match Injector.fire token ~attempt with
      | None -> Ok (f ())
      | Some fault ->
        note_fault ctx ~name fault;
        if attempt >= max_attempts then Error fault
        else begin
          charge_sync ctx ~lane:Event.Ctrl
            (span_label ~track:"overhead" ~name:("backoff:" ^ name)
               [ ("fault", Fault.kind_code fault.Fault.kind);
                 ("attempt", string_of_int attempt) ])
            (Fault.backoff_s ctx.retry ~attempt);
          ctx.retries <- ctx.retries + 1;
          Ftn_obs.Metrics.incr "fault.retries";
          flight ctx ~cat:"retry" "retry %s (attempt %d of %d)" name
            (attempt + 1) max_attempts;
          recover fault token;
          Ftn_diag.Diag_engine.warning ctx.diag ~loc:ctx.cur_loc
            (Fmt.str "retrying %s after %s (attempt %d of %d)" name
               (Fault.describe_fault fault) (attempt + 1) max_attempts);
          attempt_loop (attempt + 1)
        end
    in
    attempt_loop 1

let exhausted (ctx : context) fault =
  Fault.fail
    (Fault.Retries_exhausted
       { fault; attempts = max 1 ctx.retry.Fault.max_attempts })

let resolve_shape ~op_name mi dynamic =
  let wanted =
    List.length
      (List.filter (fun d -> d = Types.Dynamic) mi.Types.shape)
  in
  let supplied = List.length dynamic in
  if supplied <> wanted then
    (* Surplus extents mean the bounds lowering produced sizes the type
       cannot absorb: wrong data if silently dropped, so fail loudly. *)
    Fault.fail
      (Fault.Invalid_host
         {
           op = op_name;
           reason =
             Fmt.str
               "%d dynamic extents supplied for a memref type with %d \
                dynamic dimensions"
               supplied wanted;
         });
  let rec go shape dynamic =
    match (shape, dynamic) with
    | [], _ -> []
    | Types.Static n :: rest, dynamic -> n :: go rest dynamic
    | Types.Dynamic :: rest, d :: dynamic -> d :: go rest dynamic
    | Types.Dynamic :: _, [] ->
      Fault.fail
        (Fault.Invalid_host
           { op = op_name; reason = "missing dynamic size" })
  in
  go mi.Types.shape dynamic

(* A runtime error of the interpreted program itself (an out-of-bounds
   access, a division by zero): recorded in the context's diagnostics and
   raised as a [Diag] error at [loc]. *)
let program_error (ctx : context) ~loc msg =
  Ftn_diag.Diag_engine.error ctx.diag ~loc msg;
  Ftn_diag.Diag.fail ~loc msg

(* Run the kernel's function body in the interpreter with loop statistics
   recording; returns the statistics and the interpreter steps consumed
   (the latter costs the CPU-fallback path). A runtime error of the
   kernel is located at its launching op, the current location. *)
let interpret_kernel (ctx : context) state (design : Bitstream.kernel_design)
    args =
  let stats = Timing.make_stats () in
  let saved = state.Interp.on_loop in
  let before = state.Interp.steps in
  state.Interp.on_loop <-
    Some (fun ~loop_key ~iters -> Timing.record_loop stats ~loop_key ~iters);
  Fun.protect
    ~finally:(fun () -> state.Interp.on_loop <- saved)
    (fun () ->
      try ignore (Interp.call_function state design.Bitstream.kd_function args)
      with Interp.Interp_error msg -> program_error ctx ~loc:ctx.cur_loc msg);
  (stats, state.Interp.steps - before)

(* Graceful degradation: a kernel that persistently fails on the device
   (and cannot drain to a peer) runs on the host CPU instead. Results
   stay correct (the same function body runs in the same interpreter);
   the cost lands on the "fallback" track at cpu_step_s per interpreter
   step, and this context — plus the device that failed it, but no
   healthy peer — is flagged degraded. *)
let cpu_fallback (ctx : context) state (design : Bitstream.kernel_design)
    args =
  let name = design.Bitstream.kd_name in
  let _stats, steps = interpret_kernel ctx state design args in
  let t = float_of_int steps *. ctx.retry.Fault.cpu_step_s in
  let ev =
    charge ctx ~lane:Event.Ctrl
      (span_label ~track:"fallback" ~name:("cpu_fallback:" ^ name)
         [ ("kernel", name); ("steps", string_of_int steps) ])
      t
  in
  block ctx ev;
  ctx.degraded <- true;
  ctx.device.Scheduler.dev_degraded <- true;
  ctx.cpu_fallbacks <- ctx.cpu_fallbacks + 1;
  Ftn_obs.Metrics.incr "fault.cpu_fallbacks";
  Cu_stats.note_fallback ctx.cus ~kernel:name;
  Trace.record ctx.trace (Trace.Fallback { kernel = name; steps; time_s = t });
  flight ctx ~cat:"fallback" "cpu fallback %s (%d steps)" name steps;
  Ftn_obs.Log.debugf "cpu fallback %s: %d steps, %.3f us" name steps
    (t *. 1e6);
  Ftn_diag.Diag_engine.warning ctx.diag ~loc:ctx.cur_loc
    (Fmt.str
       "kernel %s failed persistently on the device; executed on the host \
        CPU instead (%d steps)%s"
       name steps (Fault.flight_note ()));
  ev

(* Drain recovery for a persistent launch-site fault: when a healthy
   peer device exists, mark the faulted device failed, re-stage the
   kernel's buffers on the peer at honest DMA cost and cure the fault so
   the next attempt launches there. Leaves the token alone (falling
   through to the CPU path) when the context is the only device. *)
let drain_to_peer (ctx : context) ~name args (fault : Fault.fault) token =
  if fault.Fault.persistence = Fault.Persistent && ctx.retry.Fault.drain
  then
    match
      Scheduler.healthy_peer ctx.sched ~except:ctx.device.Scheduler.dev_id
    with
    | None -> ()
    | Some peer ->
      let bad = ctx.device in
      Scheduler.fail_device ctx.sched bad;
      ctx.device <- peer;
      ctx.drained <- true;
      Ftn_obs.Metrics.incr "sched.drains";
      let bytes =
        List.fold_left
          (fun acc a ->
            match a with
            | Rtval.Buf b -> acc + Rtval.byte_size b
            | _ -> acc)
          0 args
      in
      if bytes > 0 then begin
        let t = ctx.model.Device_model.transfer_time_s ~bytes in
        charge_sync ctx ~lane:Event.Copy_in
          (span_label ~track:"transfer" ~name:("drain:" ^ name)
             [ ("kernel", name); ("bytes", string_of_int bytes);
               ("from", string_of_int bad.Scheduler.dev_id) ])
          t;
        Trace.record ctx.trace
          (Trace.Transfer
             { name = "drain:" ^ name; direction = Trace.Host_to_device;
               bytes; time_s = t })
      end;
      flight ctx ~cat:"drain"
        "device %d failed persistently; drained %s to device %d (%d bytes \
         re-staged)"
        bad.Scheduler.dev_id name peer.Scheduler.dev_id bytes;
      Ftn_diag.Diag_engine.warning ctx.diag ~loc:ctx.cur_loc
        (Fmt.str
           "device %d failed persistently (%s); drained kernel %s to peer \
            device %d"
           bad.Scheduler.dev_id (Fault.describe_fault fault) name
           peer.Scheduler.dev_id);
      Injector.cure token

(* Execute one kernel: run its function body in the interpreter, then
   convert the recorded loop statistics to cycles. Injected launch faults
   fire before the body runs (a failed launch computes nothing); a
   persistently failing kernel drains to a peer device when one exists
   and degrades to host execution otherwise. Returns the completion
   event — the launch is an async enqueue; the caller decides whether to
   block on it. *)
let execute_kernel (ctx : context) state (k : kernel) args =
  let design = k.k_design in
  let name = design.Bitstream.kd_name in
  (* Host-timeline position when the launch was requested; everything
     between here and the compute engine picking the kernel up — retry
     backoff, watchdog timeouts, an occupied compute lane — is queue
     wait, measured on the owning device's timeline. *)
  let enqueue_s = ctx.cursor_s in
  let run_on_device () =
    let stats, _steps = interpret_kernel ctx state design args in
    let t = ctx.model.Device_model.kernel_time_s design.Bitstream.kd_schedule stats in
    let overhead = ctx.model.Device_model.launch_overhead_s in
    let kev = charge ctx ~lane:Event.Compute k.k_span ~submit_s:enqueue_s t in
    let oev =
      charge ctx ~lane:Event.Compute k.k_overhead ~submit_s:enqueue_s
        ~deps:[ kev ] overhead
    in
    let queue_wait = Event.queue_wait_s kev in
    Ftn_obs.Metrics.incr "device.kernel_launches";
    ctx.device.Scheduler.dev_launches <-
      ctx.device.Scheduler.dev_launches + 1;
    Cu_stats.note_launch ctx.cus ~kernel:name ~busy_s:t;
    let latency = queue_wait +. overhead in
    Ftn_obs.Metrics.observe "device.launch_latency_s" latency;
    Ftn_obs.Metrics.observe k.k_latency_metric latency;
    Ftn_obs.Metrics.observe k.k_time_metric t;
    Ftn_obs.Metrics.observe "device.queue_wait_s" queue_wait;
    Ftn_obs.Flight.record ~time_s:oev.Event.ev_finish_s ~loc:ctx.cur_loc_str
      ~device:ctx.device.Scheduler.dev_id ~cat:"launch" k.k_flight;
    Ftn_obs.Log.debugf "launch %s: %.3f us kernel + %.3f us overhead" name
      (t *. 1e6) (overhead *. 1e6);
    Trace.record ctx.trace
      (Trace.Launch
         { kernel = name; kernel_time_s = t; overhead_s = overhead;
           queue_wait_s = queue_wait;
           device = ctx.device.Scheduler.dev_id });
    oev
  in
  match
    with_faults ctx ~site:Fault.Launch ~kernel:name ~name
      ~recover:(drain_to_peer ctx ~name args)
      run_on_device
  with
  | Ok ev -> ev
  | Error _fault -> cpu_fallback ctx state design args

(* --- host API: the OpenCL-level operations a (hand-written) host
   program performs against the simulated device. The interpreter handler
   below routes the device dialect through these same functions. --- *)

(* [op_name] is ["alloc:" ^ key.name], the allocation's name in fault
   records and its span. *)
let alloc_key (ctx : context) (key : Data_env.key) ~op_name ~elt ~shape =
  let name = key.Data_env.name in
  let do_alloc () =
    let buffer, fresh = Data_env.alloc ctx.data key ~elt ~shape in
    if fresh then begin
      let bytes = Rtval.byte_size buffer in
      let l = buffer_label ctx.labels.allocs ~name ~bytes render_alloc in
      charge_sync ctx ~lane:Event.Ctrl l.b_span
        ctx.model.Device_model.alloc_overhead_s;
      Ftn_obs.Metrics.incr "device.allocs";
      Ftn_obs.Metrics.incr ~by:bytes "device.bytes_allocated";
      Ftn_obs.Flight.record ~time_s:ctx.cursor_s ~loc:ctx.cur_loc_str
        ~device:ctx.device.Scheduler.dev_id ~cat:"alloc" l.b_flight;
      Trace.record ctx.trace
        (Trace.Alloc
           { name; bytes; time_s = ctx.model.Device_model.alloc_overhead_s })
    end;
    buffer
  in
  (* A persistent allocation failure models device OOM: evict unpinned
     buffers and cure the fault when anything was actually freed. A
     transient fault must not evict — its recovery is a plain retry, so
     the data environment stays identical to a fault-free run. *)
  let recover (fault : Fault.fault) token =
    if fault.Fault.persistence = Fault.Persistent then begin
      let evicted = Data_env.evict_unreferenced ~except:key ctx.data in
      if evicted > 0 then begin
        Ftn_obs.Metrics.incr ~by:evicted "fault.evictions";
        Ftn_diag.Diag_engine.warning ctx.diag ~loc:ctx.cur_loc
          (Fmt.str
             "evicted %d unreferenced device buffer%s to satisfy allocation \
              of %S"
             evicted
             (if evicted = 1 then "" else "s")
             name);
        Injector.cure token
      end
    end
  in
  match with_faults ctx ~site:Fault.Alloc ~name:op_name ~recover do_alloc with
  | Ok buffer -> buffer
  | Error fault -> exhausted ctx fault

let api_alloc (ctx : context) ~name ~memory_space ~elt ~shape =
  alloc_key ctx (Data_env.key ~name ~memory_space) ~op_name:("alloc:" ^ name)
    ~elt ~shape

let api_transfer (ctx : context) ~src ~dst =
  (* Endpoint validation: transfers between buffers that disagree on
     element type or byte size corrupt data silently on real hardware, so
     they fail here with a structured shape-mismatch error. *)
  if
    (not (Types.equal src.Rtval.elt dst.Rtval.elt))
    || Rtval.byte_size src <> Rtval.byte_size dst
  then
    Fault.fail
      (Fault.Transfer_mismatch
         {
           src_elt = Types.to_string src.Rtval.elt;
           dst_elt = Types.to_string dst.Rtval.elt;
           src_bytes = Rtval.byte_size src;
           dst_bytes = Rtval.byte_size dst;
         });
  if src.Rtval.memory_space <> dst.Rtval.memory_space then begin
    let bytes = Rtval.byte_size src in
    let t = ctx.model.Device_model.transfer_time_s ~bytes in
    let direction =
      if dst.Rtval.memory_space > 0 then Trace.Host_to_device
      else Trace.Device_to_host
    in
    (* Identify the moved array by the device-side buffer's label (named
       by the data environment), falling back to the host side's. *)
    let device_side, host_side =
      if dst.Rtval.memory_space > 0 then (dst, src) else (src, dst)
    in
    let name =
      if device_side.Rtval.label <> "" then device_side.Rtval.label
      else host_side.Rtval.label
    in
    let lane, metric, l =
      match direction with
      | Trace.Host_to_device ->
        ( Event.Copy_in,
          "device.bytes_h2d",
          buffer_label ctx.labels.h2d ~name ~bytes render_h2d )
      | Trace.Device_to_host ->
        ( Event.Copy_out,
          "device.bytes_d2h",
          buffer_label ctx.labels.d2h ~name ~bytes render_d2h )
    in
    let do_transfer () =
      (* DMA engines are duplex, so the copy runs on its own lane and
         overlaps compute — but it must not start before any in-flight
         kernel of this context retires (the kernel produces or consumes
         the buffers being moved). *)
      charge_sync ctx ~lane l.b_span ~deps:ctx.pending t;
      Ftn_obs.Metrics.incr ~by:bytes metric;
      Trace.record ctx.trace
        (Trace.Transfer { name; direction; bytes; time_s = t });
      Ftn_obs.Flight.record ~time_s:ctx.cursor_s ~loc:ctx.cur_loc_str
        ~device:ctx.device.Scheduler.dev_id ~cat:"transfer" l.b_flight;
      Rtval.copy_into ~src ~dst
    in
    match
      with_faults ctx ~site:Fault.Transfer ~name:l.b_span.sl_name do_transfer
    with
    | Ok () -> ()
    | Error fault -> exhausted ctx fault
  end
  else Rtval.copy_into ~src ~dst

let kernel_interp_state (ctx : context) =
  match ctx.kernel_state with
  | Some s -> s
  | None ->
    let device_module =
      Op.module_op
        (List.map
           (fun k -> k.Bitstream.kd_function)
           ctx.bitstream.Bitstream.kernels)
    in
    let s =
      Interp.make
        ~handlers:
          [ Intrinsics.print_handler (fun _ -> ctx.sink);
            Intrinsics.runtime_library_handler ]
        ~engine:ctx.engine [ device_module ]
    in
    ctx.kernel_state <- Some s;
    s

(* Async enqueue: returns the completion event without advancing the
   host cursor, so a subsequent operation from another context (or an
   unordered one from this context) can overlap it. *)
let api_launch_async (ctx : context) ~kernel args =
  let k =
    match List.assoc_opt kernel ctx.labels.kernels with
    | Some k -> k
    | None ->
      Fault.fail
        (Fault.Missing_kernel { kernel; xclbin = ctx.labels.xclbin })
  in
  let ev = execute_kernel ctx (kernel_interp_state ctx) k args in
  ctx.pending <- ev :: ctx.pending;
  ev

let wait_event (ctx : context) (ev : Event.t) =
  block ctx ev;
  ctx.pending <-
    List.filter
      (fun (p : Event.t) -> p.Event.ev_id <> ev.Event.ev_id)
      ctx.pending

(* The blocking launch the hand-written baselines use: enqueue and
   immediately wait, exactly an OpenCL enqueue + clFinish pair. *)
let api_launch (ctx : context) ~kernel args =
  wait_event ctx (api_launch_async ctx ~kernel args)

let summary (ctx : context) =
  (device_time ctx, kernel_time ctx, transfer_time ctx, overhead_time ctx)

let device_domain =
  Interp.Names
    [
      "device.alloc"; "device.lookup"; "device.data_check_exists";
      "device.data_acquire"; "device.data_release"; "device.counter_get";
      "device.kernel_create"; "device.kernel_launch"; "device.kernel_wait";
      "memref.dma_start";
    ]

(* The run a state serves, bound by [run] for its duration. *)
type Interp.embedder += Run of context

let bound (st : Interp.state) =
  match st.Interp.embedder with
  | Run ctx -> ctx
  | _ ->
    Fault.fail
      (Fault.Invalid_host
         { op = "device"; reason = "executed outside Executor.run" })

(* A staged device op: it reaches its run's context as an argument. *)
type runner = context -> Interp.state -> Rtval.t list -> Rtval.t list

(* A runner raising [e] when it executes: how a malformed op stages. *)
let failing e : runner = fun _ _ _ -> Fault.fail e

let invalid op reason = failing (Fault.Invalid_host { op; reason })

(* The data-environment key an op's [name] and [memory_space] attributes
   name, handed to [f]; without a name the op fails when it executes. *)
let with_key op (f : string -> Data_env.key -> runner) =
  match Op.string_attr op "name" with
  | Some name ->
    f name
      (Data_env.key ~name
         ~memory_space:(Option.value ~default:0 (Op.int_attr op "memory_space")))
  | None -> invalid (Op.name op) "missing a name attribute"

(* A device-level telemetry counter, by the name a device.counter_get
   reads. *)
let counter : string -> (context -> int) option = function
  | "kernel_launches" -> Some (fun ctx -> Trace.count_launches ctx.trace)
  | "bytes_transferred" -> Some (fun ctx -> Trace.bytes_transferred ctx.trace)
  | "retries" -> Some (fun ctx -> ctx.retries)
  | "cpu_fallbacks" -> Some (fun ctx -> ctx.cpu_fallbacks)
  | "faults_injected" ->
    Some
      (fun ctx ->
        match ctx.injector with Some i -> Injector.injected i | None -> 0)
  | _ -> None

let wait_handle (ctx : context) h =
  (* A real blocking wait. Waiting on a handle this context never
     created (foreign or stale), never launched, or on a non-handle
     operand is a structured host error — the silent-success no-op this
     op used to be hid all three bugs. *)
  match Hashtbl.find_opt ctx.launched h with
  | Some ev -> wait_event ctx ev
  | None ->
    Fault.fail
      (Fault.Invalid_host
         {
           op = "device.kernel_wait";
           reason =
             (if Hashtbl.mem ctx.handles h then
                Fmt.str "kernel handle %d was never launched" h
              else
                Fmt.str
                  "unknown kernel handle %d (stale or from another context)" h);
         })

(* The work of one device op, staged: everything that depends only on
   the op (its dispatch, attributes, data-environment key, kernel and
   labels) is resolved here, once. *)
let stage_device_op labels op : runner option =
  match Op.name op with
  | "device.alloc" ->
    Some
      (with_key op (fun name key ->
           let op_name = "alloc:" ^ name in
           match List.map Value.ty (Op.results op) with
           | [ Types.Memref mi ] ->
             fun ctx _ operands ->
               let shape =
                 resolve_shape ~op_name:"device.alloc" mi
                   (List.map Rtval.as_int operands)
               in
               [ Rtval.Buf
                   (alloc_key ctx key ~op_name ~elt:mi.Types.elt ~shape) ]
           | _ -> invalid "device.alloc" "must produce a memref result"))
  | "device.lookup" ->
    Some
      (with_key op (fun _ key ctx _ _ ->
           [ Rtval.Buf (Data_env.lookup_exn ctx.data key) ]))
  | "device.data_check_exists" ->
    Some
      (with_key op (fun _ key ctx _ _ ->
           [ Rtval.Bool (Data_env.exists ctx.data key) ]))
  | "device.data_acquire" ->
    Some
      (with_key op (fun name key ->
           let label = "acquire:" ^ name in
           fun ctx _ _ ->
             Data_env.acquire ctx.data key;
             (* The acquire is a zero-cost control-plane event: it
                participates in the event graph (so ordering is
                inspectable) without charging simulated time or recording
                a span. *)
             ignore
               (Scheduler.submit ctx.sched ~device:ctx.device
                  ~lane:Event.Ctrl ~track:"ctrl" ~label
                  ~submit_s:ctx.cursor_s ~dur_s:0.0 ());
             []))
  | "device.data_release" ->
    Some
      (with_key op (fun _ key ctx _ _ ->
           Data_env.release ctx.data key;
           []))
  | "device.counter_get" -> (
    (* With a "counter" attribute the op reads a device-level telemetry
       counter; without one it keeps its original meaning, the refcount
       of a named data-environment entry. *)
    match Op.string_attr op "counter" with
    | Some name -> (
      match counter name with
      | Some read -> Some (fun ctx _ _ -> [ Rtval.Int (read ctx) ])
      | None ->
        Some
          (invalid "device.counter_get"
             (Fmt.str "unknown device counter %S" name)))
    | None ->
      Some
        (with_key op (fun _ key ctx _ _ ->
             [ Rtval.Int (Data_env.refcount ctx.data key) ])))
  | "device.kernel_create" -> (
    match Op.symbol_attr op "device_function" with
    | Some fname -> (
      match List.assoc_opt fname labels.kernels with
      | Some k ->
        Some
          (fun ctx _ operands ->
            let h = !handle_counter in
            incr handle_counter;
            Hashtbl.replace ctx.handles h { kh_kernel = k; kh_args = operands };
            [ Rtval.Handle h ])
      | None ->
        Some
          (failing
             (Fault.Missing_kernel { kernel = fname; xclbin = labels.xclbin })))
    | None ->
      Some
        (invalid "device.kernel_create" "missing a device_function attribute"))
  | "device.kernel_launch" ->
    Some
      (fun ctx state operands ->
        match operands with
        | [ Rtval.Handle h ] -> (
          match Hashtbl.find_opt ctx.handles h with
          | Some kh ->
            (* True async enqueue: the completion event is parked on the
               handle for device.kernel_wait; the host cursor stays put. *)
            let ev = execute_kernel ctx state kh.kh_kernel kh.kh_args in
            Hashtbl.replace ctx.launched h ev;
            ctx.pending <- ev :: ctx.pending;
            []
          | None ->
            Fault.fail
              (Fault.Invalid_host
                 { op = "device.kernel_launch";
                   reason = "unknown kernel handle" }))
        | _ ->
          Fault.fail
            (Fault.Invalid_host
               { op = "device.kernel_launch";
                 reason = "expects a handle operand" }))
  | "device.kernel_wait" ->
    Some
      (fun ctx _ operands ->
        match operands with
        | [ Rtval.Handle h ] ->
          wait_handle ctx h;
          []
        | _ ->
          Fault.fail
            (Fault.Invalid_host
               { op = "device.kernel_wait"; reason = "expects a handle operand" }))
  | "memref.dma_start" -> (
    match Op.operands op with
    | [ _; _ ] ->
      Some
        (fun ctx _ operands ->
          match operands with
          | [ src; dst ] ->
            api_transfer ctx ~src:(Rtval.as_buffer src)
              ~dst:(Rtval.as_buffer dst);
            []
          | _ ->
            Fault.fail
              (Fault.Invalid_host
                 { op = "memref.dma_start"; reason = "expects two operands" }))
    | _ -> None)
  | _ -> None

(* The interpreter handler implementing device.* ops and intercepting DMA
   transfers that touch device memory, for a bitstream with [labels].
   Each op is staged once per compiled closure (per execution under the
   tree-walker): its runner only finds the run's context in the state,
   makes the op's pre-rendered location current, records the op in the
   flight recorder and does the staged work. *)
let device_handler labels : Interp.handler =
  Interp.handler ~domain:device_domain @@ fun op ->
  Option.map
    (fun (work : runner) ->
      let name = Op.name op and loc = Op.loc op in
      let loc_str =
        if Ftn_diag.Loc.is_known loc then Ftn_diag.Loc.to_string loc else ""
      in
      fun state operands ->
        let ctx = bound state in
        ctx.cur_loc <- loc;
        ctx.cur_loc_str <- loc_str;
        Ftn_obs.Flight.record ~time_s:ctx.cursor_s ~loc:loc_str
          ~device:ctx.device.Scheduler.dev_id ~cat:"op" name;
        work ctx state operands)
    (stage_device_op labels op)

(* End-of-run leak report: any entry still holding references at teardown
   means the lowered data-environment sequence lost a device.data_release
   on some path. Surfaced as a metric plus a diagnostic warning. *)
let report_leaks (ctx : context) =
  match Data_env.leaks ctx.data with
  | [] -> ()
  | leaks ->
    Ftn_obs.Metrics.incr ~by:(List.length leaks) "data_env.leaked";
    List.iter
      (fun (key, rc) ->
        Ftn_diag.Diag_engine.warning ctx.diag
          (Fmt.str
             "device data %s still holds %d reference%s at teardown \
              (missing device.data_release?)"
             key rc
             (if rc = 1 then "" else "s")))
      leaks

(* Build a result record from an API-driven context (hand-written host). *)
let result_of_context (ctx : context) =
  report_leaks ctx;
  {
    output = Intrinsics.contents ctx.sink;
    device_time_s = device_time ctx;
    kernel_time_s = kernel_time ctx;
    transfer_time_s = transfer_time ctx;
    overhead_time_s = overhead_time ctx;
    fallback_time_s = fallback_time ctx;
    kernel_launches = Trace.count_launches ctx.trace;
    bytes_transferred = Trace.bytes_transferred ctx.trace;
    degraded = ctx.degraded;
    drained = ctx.drained;
    retries = ctx.retries;
    cpu_fallbacks = ctx.cpu_fallbacks;
    faults_injected =
      (match ctx.injector with Some i -> Injector.injected i | None -> 0);
    device = ctx.device.Scheduler.dev_id;
    finish_s = finish_time ctx;
    trace = ctx.trace;
    data = ctx.data;
    cus = Cu_stats.snapshot ctx.cus ~window_s:ctx.charged_s;
  }

(* --- the runtime program of an artifact --- *)

(* One interpreter state over an artifact's host module, with the
   device, print and runtime-library handlers staged against [labels].
   Its compiled functions and labels serve every run that borrows it. *)
type instance = {
  state : Interp.state;
  labels : labels;
}

(* What the runs of one artifact share. [idle] holds the instances no
   run is using: one per engine when runs follow one another; a run that
   starts while another holds its engine's instance gets a new one. *)
type program = {
  host : Op.t;
  bitstream : Bitstream.t;
  main : Op.t option;
  mutable idle : instance list;
}

(* Programs keyed weakly on the artifact, so each dies with its host
   module and bitstream. The IR is immutable, so hashing the host's
   structure is stable; equality is identity. *)
module Programs =
  Ephemeron.K2.Make
    (struct
      type t = Op.t

      let equal = ( == )
      let hash = Hashtbl.hash
    end)
    (struct
      type t = Bitstream.t

      let equal = ( == )
      let hash (b : t) = Hashtbl.hash b.Bitstream.xclbin_name
    end)

let programs = Programs.create 16

let new_instance p engine =
  let labels = labels_of p.bitstream in
  let handlers =
    [
      device_handler labels;
      Intrinsics.print_handler (fun st -> (bound st).sink);
      Intrinsics.runtime_library_handler;
    ]
  in
  { state = Interp.make ~handlers ~engine [ p.host ]; labels }

(* Take an idle instance of the artifact's program for [engine], making
   the program or the instance when there is none. *)
let take ~host ~bitstream engine =
  let p =
    match Programs.find_opt programs (host, bitstream) with
    | Some p -> p
    | None ->
      let main = Interp.main_function host in
      let p = { host; bitstream; main; idle = [] } in
      Programs.replace programs (host, bitstream) p;
      p
  in
  match
    List.partition (fun i -> i.state.Interp.engine = engine) p.idle
  with
  | i :: same, others ->
    p.idle <- same @ others;
    (p, i)
  | [], _ -> (p, new_instance p engine)

let give_back p i = p.idle <- i :: p.idle

(* Run the host module's main (or a named entry) against a bitstream, on
   an instance of the artifact's program bound to a fresh context. *)
let run ?(echo = false) ?entry ?(args = []) ?engine ?diag ?faults
    ?retry ?sched ?device ?start_s ~host ~bitstream () =
  let engine =
    match engine with Some e -> e | None -> Interp.default_engine ()
  in
  let p, inst = take ~host ~bitstream engine in
  Fun.protect ~finally:(fun () -> give_back p inst) @@ fun () ->
  let ctx =
    make_context ~labels:inst.labels ~echo ~engine ?diag ?faults ?retry
      ?sched ?device ?start_s bitstream
  in
  let state = inst.state in
  let steps =
    Interp.with_embedder state (Run ctx) @@ fun () ->
    (try
       match entry with
       | Some entry -> ignore (Interp.run state ~entry ~args)
       | None -> (
         match p.main with
         | Some fn -> ignore (Interp.call_function state fn args)
         | None ->
           Fault.fail
             (Fault.Invalid_host
                { op = "module"; reason = "host module has no main program" }))
     with
    | Fault.Error (e, loc) as exn ->
      (* Record the structured runtime error in the context's diagnostics
         stream before propagating, so drivers that accumulate diagnostics
         see it alongside compile-time errors, with the launching op's
         source location. *)
      Ftn_diag.Diag_engine.error ctx.diag ~loc
        (Fault.message e ^ Fault.flight_note ());
      raise exn
    | Interp.Interp_error msg ->
      (* The same error in host code, which does not say which op was
         executing, so it carries no location. *)
      program_error ctx ~loc:Ftn_diag.Loc.unknown msg);
    state.Interp.steps
  in
  Ftn_obs.Metrics.incr ~by:steps "interp.steps";
  result_of_context ctx

(* CPU reference: run the core-level module with sequential OpenMP
   semantics (no device). *)
let run_cpu ?(echo = false) ?entry ?(args = []) ?engine core_module =
  let sink = Intrinsics.make_sink ~echo () in
  let handlers =
    [ Intrinsics.print_handler (fun _ -> sink);
      Intrinsics.runtime_library_handler ]
  in
  let state = Interp.make ~handlers ?engine [ core_module ] in
  (try
     match entry with
     | Some entry -> ignore (Interp.run state ~entry ~args)
     | None -> (
       match Interp.main_function core_module with
       | Some fn -> ignore (Interp.call_function state fn args)
       | None ->
         Fault.fail
           (Fault.Invalid_host
              { op = "module"; reason = "module has no main program" }))
   with Interp.Interp_error msg ->
     (* A runtime error of the program; as in [run]'s host code, no
        location says which op was executing. *)
     Ftn_diag.Diag.fail msg);
  Ftn_obs.Metrics.incr ~by:state.Interp.steps "interp.steps";
  (Intrinsics.contents sink, state.Interp.steps)
