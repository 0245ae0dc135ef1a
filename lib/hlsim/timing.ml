(* Timing model: converts a kernel schedule plus observed loop statistics
   (entries and iterations per loop, gathered during functional execution)
   into cycles and seconds, and costs DMA transfers, kernel launches and
   first-touch buffer allocations. *)

type loop_stats = {
  entries : (int, int) Hashtbl.t;  (** loop_key -> times entered *)
  iterations : (int, int) Hashtbl.t;  (** loop_key -> total iterations *)
}

let make_stats () = { entries = Hashtbl.create 8; iterations = Hashtbl.create 8 }

let record_loop stats ~loop_key ~iters =
  let bump t k v =
    Hashtbl.replace t k (v + Option.value ~default:0 (Hashtbl.find_opt t k))
  in
  bump stats.entries loop_key 1;
  bump stats.iterations loop_key iters

(* Cycles contributed by one loop (and its nested loops). *)
let loop_cycles_observed stats (l : Schedule.loop_info) =
  let rec go (l : Schedule.loop_info) =
    let entries =
      Option.value ~default:0 (Hashtbl.find_opt stats.entries l.Schedule.loop_key)
    in
    let iters =
      Option.value ~default:0
        (Hashtbl.find_opt stats.iterations l.Schedule.loop_key)
    in
    let fill = if l.Schedule.pipelined then entries * l.Schedule.depth else 0 in
    float_of_int fill
    +. (float_of_int iters *. l.Schedule.cycles_per_iteration)
    +. List.fold_left (fun acc n -> acc +. go n) 0.0 l.Schedule.nested
  in
  go l

(* Cycles for one kernel execution given observed loop statistics. In a
   dataflow kernel the top-level stages overlap: the slowest stage bounds
   the kernel instead of the stage sum. *)
let kernel_cycles (ks : Schedule.kernel_schedule) stats =
  let per_stage =
    List.map (loop_cycles_observed stats) ks.Schedule.loops
  in
  if ks.Schedule.dataflow then
    List.fold_left Float.max 0.0 per_stage
  else List.fold_left ( +. ) 0.0 per_stage

let kernel_time_s spec ks stats =
  kernel_cycles ks stats *. Fpga_spec.clock_period_s spec

(* Static estimate using compile-time trip counts where available; loops
   with dynamic trips are assumed to run [assumed_trip] iterations. *)
let static_kernel_cycles ?(assumed_trip = 0) (ks : Schedule.kernel_schedule) =
  let rec loop_cycles outer_trip (l : Schedule.loop_info) =
    let trip =
      match l.Schedule.static_trip with
      | Some t -> t
      | None -> assumed_trip
    in
    let own =
      (if l.Schedule.pipelined then float_of_int l.Schedule.depth else 0.0)
      +. (float_of_int trip *. l.Schedule.cycles_per_iteration)
    in
    let nested =
      List.fold_left
        (fun acc n -> acc +. loop_cycles (outer_trip * trip) n)
        0.0 l.Schedule.nested
    in
    (own *. float_of_int outer_trip) +. nested
  in
  List.fold_left
    (fun acc l -> acc +. loop_cycles 1 l)
    0.0 ks.Schedule.loops

let transfer_time_s spec ~bytes =
  let open Fpga_spec in
  spec.dma_fixed_overhead_s
  +. (float_of_int bytes /. spec.dma_bandwidth_bytes_per_s)

let launch_overhead_s spec = spec.Fpga_spec.kernel_launch_overhead_s
let alloc_overhead_s spec = spec.Fpga_spec.buffer_alloc_overhead_s
