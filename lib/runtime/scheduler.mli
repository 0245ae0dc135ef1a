(** Multi-device scheduler for the simulated host runtime: N identical
    accelerator cards, each with four engine lanes (duplex DMA, compute,
    control).

    Submitting an operation computes
    [start = max(ready, lane availability, dependency finishes)] and
    advances the lane, so a single chained program sees the same timings
    as the old synchronous executor while concurrent programs genuinely
    overlap transfers with compute. Global elapsed time is the makespan
    of the event graph (max over dependency chains), not a sum. *)

type device = {
  dev_id : int;
  mutable copy_in_avail_s : float;
  mutable copy_out_avail_s : float;
  mutable compute_avail_s : float;
  mutable ctrl_avail_s : float;
  mutable dev_kernel_s : float;
  mutable dev_transfer_s : float;
  mutable dev_overhead_s : float;
  mutable dev_fallback_s : float;
  mutable dev_launches : int;  (** [Kernel]-track submissions. *)
  mutable dev_jobs : int;
  mutable dev_degraded : bool;
      (** A kernel on this device fell back to the host CPU. *)
  mutable dev_failed : bool;
      (** Persistently faulted; its queue was drained to a peer and
          placement skips it. *)
}

type t

val create : ?devices:int -> unit -> t
(** [devices] defaults to 1; raises [Invalid_argument] below 1. *)

val device_count : t -> int
val device : t -> int -> device
val devices : t -> device list

val submit :
  t ->
  device:device ->
  lane:Event.lane ->
  track:Event.track ->
  submit_s:float ->
  ?ready_s:float ->
  ?deps:Event.t list ->
  dur_s:float ->
  unit ->
  Event.t
(** Schedule one operation. [submit_s] is when the host enqueued it
    (queue wait is measured from here); [ready_s] (default [submit_s])
    is the earliest it may start. The event starts at
    [max(ready_s, lane availability, dependency finishes)], the lane
    advances to its finish and [dur_s] adds to the device's [track]
    total; a [Kernel]-track operation also counts one launch. *)

val lane_avail_s : device -> Event.lane -> float
(** When the lane next becomes free. *)

val elapsed_s : t -> float
(** Makespan of everything scheduled so far across all devices. *)

val device_busy_s : device -> float
val device_makespan_s : device -> float

val pick_device : t -> device
(** The non-failed device whose compute engine frees first (ties to the
    lowest id). Raises a structured {!Ftn_fault.Fault.Invalid_host}
    error when every device has failed. *)

val healthy_peer : t -> except:int -> device option
(** Least-loaded non-failed device other than [except], for draining a
    persistently faulted device's queue. *)

val fail_device : t -> device -> unit
(** Mark the device failed and count the drain. Idempotent. *)

val drains : t -> int

type device_snapshot = {
  ds_id : int;
  ds_jobs : int;
  ds_launches : int;
  ds_kernel_s : float;
  ds_transfer_s : float;
  ds_overhead_s : float;
  ds_fallback_s : float;
  ds_busy_s : float;
  ds_makespan_s : float;
  ds_degraded : bool;
  ds_failed : bool;
}

val snapshot_device : device -> device_snapshot
val snapshot : t -> device_snapshot list
val pp_device_snapshot : Format.formatter -> device_snapshot -> unit
