(** Event trace of simulated device activity, with the simulated cost of
    each event. A run's trace is the one record of its device charges:
    each is recorded right after it is made, with the device and the
    device-timeline start the scheduler gave it; {!totals} folds the
    run's times and counters from them, and {!replay_spans} renders them
    as sim-clock spans. *)

type direction =
  | Host_to_device
  | Device_to_host

(** A drain's re-staging of a persistently faulted kernel's buffers. *)
type drain = {
  kernel : string;
  from_device : int;  (** The device that failed. *)
}

(** A job the queue cancelled before it ran. *)
type shed = {
  job : string;
  tenant : string;
  reason : string;
      (** ["deadline"], ["overload"], ["dep_shed"] (a dependency was
          shed) or ["no_device"] (all devices failed or quarantined). *)
  wait_s : float;  (** Queue wait charged to the shed job. *)
  time_s : float;  (** Simulated time the shed was decided. *)
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
      name : string;  (** The moved array, or ["drain:<kernel>"]. *)
      direction : direction;
      bytes : int;
      device : int;
      start_s : float;
      time_s : float;
      drain : drain option;  (** [Some] for a drain's re-staging. *)
    }
  | Launch of {
      kernel : string;
      kernel_time_s : float;
      overhead_s : float;  (** Charged when the kernel finishes. *)
      queue_wait_s : float;
          (** Pickup minus enqueue on the owning device's timeline. *)
      device : int;  (** Simulated device the kernel ran on. *)
      start_s : float;  (** When the kernel started. *)
    }
  | Fault of {
      target : string;  (** Buffer or kernel the fault was injected into. *)
      kind : string;  (** {!Ftn_fault.Fault.kind_code} of the fault. *)
      attempt : int;
      device : int;
      start_s : float;  (** The watchdog's start, or the detection time. *)
      time_s : float;  (** Watchdog window charged on detection, or 0. *)
    }
  | Retry of {
      target : string;  (** The operation repeated after a fault. *)
      kind : string;  (** The kind code of the fault it answers. *)
      attempt : int;  (** The attempt that failed. *)
      device : int;
      start_s : float;
      time_s : float;  (** Backoff charged to the overhead track. *)
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
      from_ : string;  (** {!Breaker.state_name} before the transition. *)
      to_ : string;
      trips : int;  (** Cumulative trips after the transition. *)
      time_s : float;
    }
  | Shed of shed

type t

val create : unit -> t
val record : t -> event -> unit

val events : t -> event list
(** In program order. *)

type totals = {
  device_s : float;  (** Every charge: the sum of the four tracks. *)
  kernel_s : float;
  transfer_s : float;
  overhead_s : float;
  fallback_s : float;
  launches : int;
  bytes : int;  (** Bytes moved by transfers, drains included. *)
  retries : int;
  cpu_fallbacks : int;
}

val totals : t -> totals
(** One pass over the events, adding each charge to its track and to
    [device_s] in the order it was made (a launch: kernel, then
    overhead), so the sums equal running totals bit for bit. *)

val replay_spans : ?collector:Ftn_obs.Span.t -> t -> unit
(** Record each charge, in order, as a sim-clock span in [collector]
    (default the ambient one), attributed with its track, device and
    operands: a launch as its kernel and then ["launch_overhead"], a
    fault only for a watchdog window it charged. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
