(* Multi-device scheduler for the simulated host runtime.

   Simulates N identical accelerator cards, each with four engine lanes
   (duplex DMA, compute, control; see {!Event.lane}) and its own
   per-track busy totals. Time is simulated: each lane remembers when
   it next becomes free, and submitting an operation computes

     start = max(ready time, lane availability, dependency finishes)

   then advances the lane to the operation's finish. Global elapsed time
   is therefore the maximum over all lanes of all devices — the makespan
   of the event graph — while per-track busy totals keep accumulating
   durations exactly as the synchronous executor did, so a single
   chained program sees timings bit-identical to the old model and
   concurrent programs genuinely overlap transfers with compute.

   Devices can be marked failed (a persistent fault drained its work to
   a peer) or degraded (a kernel on it fell back to the host CPU);
   failed devices are skipped by placement. *)

module Fault = Ftn_fault.Fault

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
  mutable dev_launches : int;
  mutable dev_jobs : int;
  mutable dev_degraded : bool;
  mutable dev_failed : bool;
}

type t = {
  devices : device array;
  mutable next_ev : int;
  mutable drains : int;
      (* queues drained to a peer after a persistent device fault *)
}

let make_device id =
  {
    dev_id = id;
    copy_in_avail_s = 0.0;
    copy_out_avail_s = 0.0;
    compute_avail_s = 0.0;
    ctrl_avail_s = 0.0;
    dev_kernel_s = 0.0;
    dev_transfer_s = 0.0;
    dev_overhead_s = 0.0;
    dev_fallback_s = 0.0;
    dev_launches = 0;
    dev_jobs = 0;
    dev_degraded = false;
    dev_failed = false;
  }

let create ?(devices = 1) () =
  if devices < 1 then
    invalid_arg (Fmt.str "Scheduler.create: %d devices" devices);
  {
    devices = Array.init devices make_device;
    next_ev = 0;
    drains = 0;
  }

let device_count t = Array.length t.devices
let device t id = t.devices.(id)
let devices t = Array.to_list t.devices

let lane_avail_s dev = function
  | Event.Copy_in -> dev.copy_in_avail_s
  | Event.Copy_out -> dev.copy_out_avail_s
  | Event.Compute -> dev.compute_avail_s
  | Event.Ctrl -> dev.ctrl_avail_s

let set_lane_avail dev lane v =
  match lane with
  | Event.Copy_in -> dev.copy_in_avail_s <- v
  | Event.Copy_out -> dev.copy_out_avail_s <- v
  | Event.Compute -> dev.compute_avail_s <- v
  | Event.Ctrl -> dev.ctrl_avail_s <- v

(* Schedule one operation on [device]'s [lane]. [submit_s] is when the
   host enqueued it (queue wait is measured from here); [ready_s]
   (default [submit_s]) is the earliest the operation may start — the
   executor passes its program cursor so an operation never starts
   before the host-side work that precedes it. A kernel is a launch. *)
let submit t ~device:dev ~lane ~track ~submit_s ?ready_s
    ?(deps = []) ~dur_s () =
  let ready = Option.value ~default:submit_s ready_s in
  let start =
    List.fold_left
      (fun acc (d : Event.t) -> Float.max acc d.Event.ev_finish_s)
      (Float.max ready (lane_avail_s dev lane))
      deps
  in
  let finish = start +. dur_s in
  set_lane_avail dev lane finish;
  (match (track : Event.track) with
  | Kernel ->
    dev.dev_kernel_s <- dev.dev_kernel_s +. dur_s;
    dev.dev_launches <- dev.dev_launches + 1
  | Transfer -> dev.dev_transfer_s <- dev.dev_transfer_s +. dur_s
  | Overhead -> dev.dev_overhead_s <- dev.dev_overhead_s +. dur_s
  | Fallback -> dev.dev_fallback_s <- dev.dev_fallback_s +. dur_s);
  let id = t.next_ev in
  t.next_ev <- id + 1;
  {
    Event.ev_id = id;
    ev_device = dev.dev_id;
    ev_lane = lane;
    ev_submit_s = submit_s;
    ev_start_s = start;
    ev_finish_s = finish;
    ev_deps = List.map (fun (d : Event.t) -> d.Event.ev_id) deps;
  }

let device_busy_s dev =
  dev.dev_kernel_s +. dev.dev_transfer_s +. dev.dev_overhead_s
  +. dev.dev_fallback_s

let device_makespan_s dev =
  Float.max
    (Float.max dev.copy_in_avail_s dev.copy_out_avail_s)
    (Float.max dev.compute_avail_s dev.ctrl_avail_s)

(* Makespan of everything scheduled so far: the latest lane-free time
   across all devices — max over dependency chains, not a sum. *)
let elapsed_s t =
  Array.fold_left
    (fun acc dev -> Float.max acc (device_makespan_s dev))
    0.0 t.devices

(* Placement: the non-failed device whose compute engine frees first
   (ties to the lowest id, so a fresh scheduler fills device 0 first). *)
let pick_device t =
  let best = ref None in
  Array.iter
    (fun dev ->
      if not dev.dev_failed then
        match !best with
        | Some b when b.compute_avail_s <= dev.compute_avail_s -> ()
        | _ -> best := Some dev)
    t.devices;
  match !best with
  | Some dev -> dev
  | None -> Fault.fail (Fault.Invalid_host
      { op = "scheduler"; reason = "all simulated devices have failed" })

let healthy_peer t ~except =
  let best = ref None in
  Array.iter
    (fun dev ->
      if (not dev.dev_failed) && dev.dev_id <> except then
        match !best with
        | Some b when b.compute_avail_s <= dev.compute_avail_s -> ()
        | _ -> best := Some dev)
    t.devices;
  !best

let fail_device t dev =
  if not dev.dev_failed then begin
    dev.dev_failed <- true;
    t.drains <- t.drains + 1
  end

let drains t = t.drains

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

let snapshot_device dev =
  {
    ds_id = dev.dev_id;
    ds_jobs = dev.dev_jobs;
    ds_launches = dev.dev_launches;
    ds_kernel_s = dev.dev_kernel_s;
    ds_transfer_s = dev.dev_transfer_s;
    ds_overhead_s = dev.dev_overhead_s;
    ds_fallback_s = dev.dev_fallback_s;
    ds_busy_s = device_busy_s dev;
    ds_makespan_s = device_makespan_s dev;
    ds_degraded = dev.dev_degraded;
    ds_failed = dev.dev_failed;
  }

let snapshot t = List.map snapshot_device (Array.to_list t.devices)

let pp_device_snapshot fmt ds =
  Fmt.pf fmt
    "device %d: %d job%s, %d launches, busy %.3f ms (kernel %.3f, transfer \
     %.3f, overhead %.3f, fallback %.3f)%s%s"
    ds.ds_id ds.ds_jobs
    (if ds.ds_jobs = 1 then "" else "s")
    ds.ds_launches
    (ds.ds_busy_s *. 1e3)
    (ds.ds_kernel_s *. 1e3)
    (ds.ds_transfer_s *. 1e3)
    (ds.ds_overhead_s *. 1e3)
    (ds.ds_fallback_s *. 1e3)
    (if ds.ds_degraded then " [degraded]" else "")
    (if ds.ds_failed then " [failed]" else "")
