(* OpenCL-style events for the async host runtime. Every simulated
   device operation — allocation, DMA transfer, kernel execution, launch
   overhead, retry backoff — is an event scheduled on one engine lane of
   one simulated device. An event knows when the host submitted it, when
   the device picked it up (after its lane drained and its dependencies
   finished) and when it retired; the gap between submission and pickup
   is the operation's true queue wait.

   Events are created by {!Scheduler.submit}; this module only defines
   the data and derived measures so the scheduler, the executor and the
   tests agree on one vocabulary. *)

(* Engine lanes of a simulated device. Transfers run on duplex DMA
   engines (h2d and d2h are independent, as on PCIe), kernels and their
   launch overhead on the compute engine, and control-plane work
   (allocations, retry backoff) on its own lane so it never blocks an
   in-flight copy. *)
type lane =
  | Copy_in
  | Copy_out
  | Compute
  | Ctrl

type track =
  | Kernel
  | Transfer
  | Overhead
  | Fallback

let track_name = function
  | Kernel -> "kernel"
  | Transfer -> "transfer"
  | Overhead -> "overhead"
  | Fallback -> "fallback"

type t = {
  ev_id : int;  (* unique within one scheduler *)
  ev_device : int;
  ev_lane : lane;
  ev_submit_s : float;  (* host enqueued the operation *)
  ev_start_s : float;  (* device picked it up *)
  ev_finish_s : float;
  ev_deps : int list;  (* ids of events this one waited on *)
}

let queue_wait_s ev = ev.ev_start_s -. ev.ev_submit_s

(* Two events overlap when their device-active intervals intersect with
   positive measure — the witness the transfer/compute overlap tests use. *)
let overlaps a b =
  Float.min a.ev_finish_s b.ev_finish_s
  -. Float.max a.ev_start_s b.ev_start_s
  > 0.0
