(** Event trace of simulated device activity, with the simulated cost of
    each event. A run's trace is the one record of its device charges:
    each is recorded right after it is made, and {!totals} folds the
    run's times and counters from them. *)

type direction =
  | Host_to_device
  | Device_to_host

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
      time_s : float;
    }
  | Transfer of {
      name : string;
      direction : direction;
      bytes : int;
      time_s : float;
    }
  | Launch of {
      kernel : string;
      kernel_time_s : float;
      overhead_s : float;
      queue_wait_s : float;
          (** Pickup minus enqueue on the owning device's timeline. *)
      device : int;  (** Simulated device the kernel ran on. *)
    }
  | Fault of {
      target : string;  (** Buffer or kernel the fault was injected into. *)
      kind : string;  (** {!Ftn_fault.Fault.kind_code} of the fault. *)
      attempt : int;
      time_s : float;  (** Watchdog window charged on detection, or 0. *)
    }
  | Retry of {
      target : string;  (** The operation repeated after a fault. *)
      attempt : int;  (** The attempt that failed. *)
      time_s : float;  (** Backoff charged to the overhead track. *)
    }
  | Fallback of {
      kernel : string;
      steps : int;  (** Interpreter steps of the host-CPU execution. *)
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

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
