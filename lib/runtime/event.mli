(** OpenCL-style events for the async host runtime: every simulated
    device operation is an event scheduled on one engine lane of one
    simulated device, carrying its submit/pickup/retire times. Events
    are created by {!Scheduler.submit}; what an operation charged is
    recorded in the run's {!Trace}. *)

(** Engine lanes of a simulated device: duplex DMA engines for
    transfers, a compute engine for kernels and launch overhead, and a
    control-plane lane for allocations and retry backoff. *)
type lane =
  | Copy_in
  | Copy_out
  | Compute
  | Ctrl

(** The timing track a charge adds to. Launch overhead, allocations,
    retry backoff and watchdog windows are overhead. *)
type track =
  | Kernel
  | Transfer
  | Overhead
  | Fallback

val track_name : track -> string
(** The track's span attribute: ["kernel"], ["transfer"] and so on. *)

type t = {
  ev_id : int;  (** Unique within one scheduler. *)
  ev_device : int;
  ev_lane : lane;
  ev_submit_s : float;  (** When the host enqueued the operation. *)
  ev_start_s : float;  (** When the device picked it up. *)
  ev_finish_s : float;
  ev_deps : int list;  (** Ids of the events this one waited on. *)
}

val queue_wait_s : t -> float
(** Pickup minus submission on the owning device's timeline — the
    operation's true queue wait. *)

val overlaps : t -> t -> bool
(** Whether the two device-active intervals intersect with positive
    measure. *)
