(* Event trace of simulated device activity, with the simulated cost of
   each event. The executor records an event right after each charge, so
   a run's trace is the one record of its device time; its sim-clock
   spans are a replay of it. Inspectable by tests and printed by the CLI. *)

type direction =
  | Host_to_device
  | Device_to_host

type drain = {
  kernel : string;
  from_device : int;
}

type shed = {
  job : string;
  tenant : string;
  reason : string;  (* deadline | overload | dep_shed | no_device *)
  wait_s : float;  (* queue wait charged to the shed job *)
  time_s : float;
}

type event =
  | Alloc of {
      name : string;
      bytes : int;
      device : int;
      start_s : float;
      time_s : float;
    }
  | Transfer of {
      name : string;
      direction : direction;
      bytes : int;
      device : int;
      start_s : float;
      time_s : float;
      drain : drain option;
    }
  | Launch of {
      kernel : string;
      kernel_time_s : float;
      overhead_s : float;
      queue_wait_s : float;
          (* pickup minus enqueue on the owning device's timeline *)
      device : int;
      start_s : float;
    }
  | Fault of {
      target : string;
      kind : string;  (** Fault.kind_code of the injected fault. *)
      attempt : int;
      device : int;
      start_s : float;
      time_s : float;  (** Watchdog window charged on detection, or 0. *)
    }
  | Retry of {
      target : string;
      kind : string;
      attempt : int;  (** The attempt that failed. *)
      device : int;
      start_s : float;
      time_s : float;  (** Backoff before the next attempt. *)
    }
  | Fallback of {
      kernel : string;
      steps : int;  (** Interpreter steps of the host-CPU execution. *)
      device : int;
      start_s : float;
      time_s : float;
    }
  | Breaker of {
      device : int;
      from_ : string;
      to_ : string;
      trips : int;
      time_s : float;
    }
  | Shed of shed

(* The first [len] slots of [events], in program order; the array
   doubles when full. *)
type t = {
  mutable events : event array;
  mutable len : int;
}

let create () = { events = [||]; len = 0 }

let record t e =
  if t.len = Array.length t.events then begin
    let grown = Array.make (max 16 (2 * t.len)) e in
    Array.blit t.events 0 grown 0 t.len;
    t.events <- grown
  end;
  t.events.(t.len) <- e;
  t.len <- t.len + 1

let events t = Array.to_list (Array.sub t.events 0 t.len)

type totals = {
  device_s : float;
  kernel_s : float;
  transfer_s : float;
  overhead_s : float;
  fallback_s : float;
  launches : int;
  bytes : int;
  retries : int;
  cpu_fallbacks : int;
}

(* The accumulators are local refs no closure captures, so they stay
   unboxed and the loop allocates nothing. A fault without a watchdog
   window adds 0, which changes no sum. *)
let totals t =
  let device = ref 0.0 and kernel = ref 0.0 and transfer = ref 0.0 in
  let overhead = ref 0.0 and fallback = ref 0.0 in
  let launches = ref 0 and bytes = ref 0 and retries = ref 0 in
  let cpu_fallbacks = ref 0 in
  for i = 0 to t.len - 1 do
    match t.events.(i) with
    | Alloc { time_s; _ } | Fault { time_s; _ } ->
      device := !device +. time_s;
      overhead := !overhead +. time_s
    | Retry { time_s; _ } ->
      incr retries;
      device := !device +. time_s;
      overhead := !overhead +. time_s
    | Transfer { bytes = b; time_s; _ } ->
      bytes := !bytes + b;
      device := !device +. time_s;
      transfer := !transfer +. time_s
    | Launch { kernel_time_s; overhead_s; _ } ->
      incr launches;
      device := !device +. kernel_time_s;
      kernel := !kernel +. kernel_time_s;
      device := !device +. overhead_s;
      overhead := !overhead +. overhead_s
    | Fallback { time_s; _ } ->
      incr cpu_fallbacks;
      device := !device +. time_s;
      fallback := !fallback +. time_s
    | Breaker _ | Shed _ -> ()
  done;
  { device_s = !device; kernel_s = !kernel; transfer_s = !transfer;
    overhead_s = !overhead; fallback_s = !fallback; launches = !launches;
    bytes = !bytes; retries = !retries; cpu_fallbacks = !cpu_fallbacks }

(* Each charge as a sim-clock span named for its kind, attributed with
   its track and device, then its own operands. *)
let replay_spans ?collector t =
  let span (track : Event.track) name device start_s dur_s attrs =
    ignore
      (Ftn_obs.Span.record_sim ?collector ~name ~start_s ~dur_s
         ~attrs:
           (("track", Event.track_name track)
           :: ("device", string_of_int device) :: attrs)
         ())
  in
  let n = string_of_int in
  for i = 0 to t.len - 1 do
    match t.events.(i) with
    | Alloc { name; bytes; device; start_s; time_s } ->
      span Overhead ("alloc:" ^ name) device start_s time_s
        [ ("buffer", name); ("bytes", n bytes) ]
    | Transfer { name; bytes; device; start_s; time_s; drain = Some d; _ } ->
      span Transfer name device start_s time_s
        [ ("kernel", d.kernel); ("bytes", n bytes); ("from", n d.from_device) ]
    | Transfer { name; direction; bytes; device; start_s; time_s; _ } ->
      let dir = if direction = Host_to_device then "h2d" else "d2h" in
      span Transfer (dir ^ ":" ^ name) device start_s time_s
        [ ("buffer", name); ("direction", dir); ("bytes", n bytes) ]
    | Launch { kernel; kernel_time_s; overhead_s; device; start_s; _ } ->
      span Kernel kernel device start_s kernel_time_s [ ("kernel", kernel) ];
      span Overhead "launch_overhead" device (start_s +. kernel_time_s)
        overhead_s [ ("kernel", kernel) ]
    | Fault { target; kind; device; start_s; time_s; _ } when time_s > 0.0 ->
      span Overhead ("watchdog:" ^ target) device start_s time_s
        [ ("fault", kind) ]
    | Retry { target; kind; attempt; device; start_s; time_s } ->
      span Overhead ("backoff:" ^ target) device start_s time_s
        [ ("fault", kind); ("attempt", n attempt) ]
    | Fallback { kernel; steps; device; start_s; time_s } ->
      span Fallback ("cpu_fallback:" ^ kernel) device start_s time_s
        [ ("kernel", kernel); ("steps", n steps) ]
    | Fault _ | Breaker _ | Shed _ -> ()
  done

let pp_event fmt = function
  | Alloc { name; bytes; time_s; _ } ->
    Fmt.pf fmt "alloc    %-12s %10d B  %.3f us" name bytes (time_s *. 1e6)
  | Transfer { name; direction; bytes; time_s; _ } ->
    Fmt.pf fmt "%s %-12s %10d B  %.3f us"
      (match direction with
      | Host_to_device -> "h2d     "
      | Device_to_host -> "d2h     ")
      name bytes (time_s *. 1e6)
  | Launch { kernel; kernel_time_s; overhead_s; queue_wait_s; device; _ } ->
    Fmt.pf fmt "launch   %-12s  kernel %.3f us (+%.3f us overhead%s) d%d"
      kernel (kernel_time_s *. 1e6) (overhead_s *. 1e6)
      (if queue_wait_s > 0.0 then
         Fmt.str ", %.3f us queued" (queue_wait_s *. 1e6)
       else "")
      device
  | Fault { target; kind; attempt; time_s; _ } ->
    Fmt.pf fmt "fault    %-12s  %s attempt %d  %.3f us" target kind attempt
      (time_s *. 1e6)
  | Retry { target; attempt; time_s; _ } ->
    Fmt.pf fmt "retry    %-12s  attempt %d  %.3f us" target attempt
      (time_s *. 1e6)
  | Fallback { kernel; steps; time_s; _ } ->
    Fmt.pf fmt "fallback %-12s  %d host steps  %.3f us" kernel steps
      (time_s *. 1e6)
  | Breaker { device; from_; to_; trips; time_s } ->
    Fmt.pf fmt "breaker  d%-11d  %s -> %s (trip %d)  %.3f us" device from_ to_
      trips (time_s *. 1e6)
  | Shed { job; tenant; reason; wait_s; time_s } ->
    Fmt.pf fmt "shed     %-12s  tenant %s, %s, waited %.3f us  %.3f us" job
      tenant reason (wait_s *. 1e6) (time_s *. 1e6)

let pp fmt t = Fmt.pf fmt "@[<v>%a@]" (Fmt.list pp_event) (events t)
