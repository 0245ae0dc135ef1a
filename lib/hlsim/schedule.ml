(* HLS scheduling model: analyses a kernel function (hls-dialect level) and
   assigns each loop an initiation interval, pipeline depth and unroll
   factor following the simulator's cost rules:

   - A pipelined loop is bound by the busiest m_axi port: with unroll U and
     A accesses per original iteration on that port, the port serialises
     U*A beats at axi_share_cycles each.
   - A loop that reads and writes through the same m_axi port and is NOT
     unrolled is additionally bound by the unresolved read-modify-write
     dependence chain (rmw_chain_cycles): HLS cannot disambiguate the
     pointers and conservatively serialises iterations on the full AXI
     round trip. Unrolling exposes U independent chains that overlap, so
     the port bound takes over — this is why the paper's simd(10) SAXPY
     sustains ~32 cycles/element while the non-unrolled SGESL inner loop
     pays ~187 cycles/iteration.
   - Non-pipelined loops execute their body latency sequentially. *)

open Ftn_ir
open Ftn_dialects

type loop_info = {
  loop_key : int;  (** Induction variable id — stable across analysis/run. *)
  pipelined : bool;
  ii_directive : int;
  unroll : int;
  depth : int;
  port_accesses : (string * int * int) list;
      (** bundle, reads, writes per original iteration. *)
  rmw_port : bool;
  cycles_per_iteration : float;
  static_trip : int option;
  macs : int;  (** Multiply-accumulate pairs per original iteration. *)
  fp_ops : int;
  int_ops : int;
  nested : loop_info list;
}

type kernel_schedule = {
  fn_name : string;
  m_axi_bundles : string list;
  s_axilite_args : int;
  loops : loop_info list;
  local_buffer_bytes : int;
  toplevel_macs : int;
  dataflow : bool;
      (** hls.dataflow present: top-level stages overlap, so the kernel is
          bound by its slowest stage instead of the sum. *)
}

(* --- helpers --- *)

let defs_table fn =
  let t : (int, Op.t) Hashtbl.t = Hashtbl.create 64 in
  Op.walk
    (fun op -> List.iter (fun r -> Hashtbl.replace t (Value.id r) op) (Op.results op))
    fn;
  t

let const_int defs v =
  match Hashtbl.find_opt defs (Value.id v) with
  | Some op -> Arith.constant_int op
  | None -> None

(* bundle assignment: arg value id -> bundle name *)
let bundle_map fn =
  let t : (int, string) Hashtbl.t = Hashtbl.create 8 in
  Op.walk
    (fun op ->
      if Hls.is_interface op then
        match (Op.operands op, Hls.interface_bundle op) with
        | arg :: _, Some bundle when not (String.equal bundle "control") ->
          Hashtbl.replace t (Value.id arg) bundle
        | _ -> ())
    fn;
  t

let count_ops_in body pred =
  List.fold_left
    (fun acc op -> acc + Op.count pred op)
    0 body

(* MAC pairs: an addf/subf with a mulf-defined operand. *)
let count_macs defs body =
  let is_mulf op = Arith.kind op = Some (Arith.Float_binop Mulf) in
  count_ops_in body (fun op ->
      match Arith.kind op with
      | Some (Arith.Float_binop (Addf | Subf)) ->
        List.exists
          (fun v ->
            match Hashtbl.find_opt defs (Value.id v) with
            | Some d -> is_mulf d
            | None -> false)
          (Op.operands op)
      | _ -> false)

(* Op classes of the cost model: float arithmetic and every math op are
   float ops; integer arithmetic, cmpi and index_cast are integer ops;
   cmpf, select and the other casts are in neither. *)
let math_names = "math.powf" :: Math_d.unary_names

let is_float_op op =
  match Arith.kind op with
  | Some (Arith.Float_binop _ | Arith.Negf) -> true
  | Some
      ( Arith.Constant | Arith.Int_binop _ | Arith.Cmpi | Arith.Cmpf
      | Arith.Cast _ | Arith.Select ) ->
    false
  | None -> List.mem (Op.name op) math_names

let is_int_op op =
  match Arith.kind op with
  | Some (Arith.Int_binop _ | Arith.Cmpi | Arith.Cast Index_cast) -> true
  | Some
      ( Arith.Constant | Arith.Float_binop _ | Arith.Negf | Arith.Cmpf
      | Arith.Cast (Sitofp | Fptosi | Extf | Truncf | Extsi | Extui | Trunci)
      | Arith.Select )
  | None ->
    false

(* Direct ops of a body, not descending into nested scf.for. *)
let direct_ops body =
  let acc = ref [] in
  let rec go op =
    acc := op :: !acc;
    if not (Scf.is_for op) then
      List.iter
        (fun blocks ->
          List.iter (fun blk -> List.iter go blk.Op.body) blocks)
        op.Op.regions
  in
  List.iter go body;
  List.rev !acc

let port_accesses bundles ops =
  let table : (string, int * int) Hashtbl.t = Hashtbl.create 4 in
  let add bundle is_write =
    let r, w = Option.value ~default:(0, 0) (Hashtbl.find_opt table bundle) in
    Hashtbl.replace table bundle
      (if is_write then (r, w + 1) else (r + 1, w))
  in
  List.iter
    (fun op ->
      match Op.name op with
      | "memref.load" -> (
        match Op.operands op with
        | mr :: _ -> (
          match Hashtbl.find_opt bundles (Value.id mr) with
          | Some bundle -> add bundle false
          | None -> ())
        | [] -> ())
      | "memref.store" -> (
        match Op.operands op with
        | _ :: mr :: _ -> (
          match Hashtbl.find_opt bundles (Value.id mr) with
          | Some bundle -> add bundle true
          | None -> ())
        | _ -> ())
      | _ -> ())
    ops;
  Hashtbl.fold (fun bundle (r, w) acc -> (bundle, r, w) :: acc) table []
  |> List.sort compare

(* --- loop analysis --- *)

(* Topmost scf.for loops in an op list, looking through other regions. *)
let rec topmost_loops ops =
  List.concat_map
    (fun op ->
      if Scf.is_for op then [ op ]
      else
        List.concat_map
          (fun blocks ->
            List.concat_map (fun blk -> topmost_loops blk.Op.body) blocks)
          op.Op.regions)
    ops

let rec analyse_loop spec defs bundles op =
  match Scf.for_parts op with
  | None -> None
  | Some parts ->
    let body = parts.Scf.body in
    let dir_ops = direct_ops body in
    let find_directive name =
      List.find_map
        (fun o ->
          if String.equal (Op.name o) name then
            match Op.operands o with
            | [ v ] -> const_int defs v
            | _ -> None
          else None)
        dir_ops
    in
    let pipelined = List.exists Hls.is_pipeline dir_ops in
    let ii_directive = Option.value ~default:1 (find_directive "hls.pipeline") in
    let unroll = Option.value ~default:1 (find_directive "hls.unroll") in
    let ports = port_accesses bundles dir_ops in
    let busiest =
      List.fold_left (fun acc (_, r, w) -> max acc (r + w)) 0 ports
    in
    let rmw_port = List.exists (fun (_, r, w) -> r > 0 && w > 0) ports in
    let macs = count_macs defs body in
    let fp_ops = count_ops_in body is_float_op in
    let int_ops = count_ops_in body is_int_op in
    let nested =
      List.filter_map (analyse_loop spec defs bundles) (topmost_loops body)
    in
    let cycles_per_iteration =
      if pipelined then begin
        let open Fpga_spec in
        let beat =
          if spec.burst_inference then spec.burst_beat_cycles
          else spec.axi_share_cycles
        in
        let serial = unroll * busiest * beat in
        let chain =
          if rmw_port && not spec.burst_inference then spec.rmw_chain_cycles
          else 0
        in
        let ii_total = max (max serial chain) (unroll * ii_directive) in
        float_of_int (max ii_total 1) /. float_of_int unroll
      end
      else begin
        (* sequential: body latency per iteration *)
        let open Fpga_spec in
        let mem = busiest * spec.axi_share_cycles * 3 in
        let compute = (fp_ops * 8) + (int_ops * 1) in
        float_of_int (max (mem + compute + 10) 1)
      end
    in
    let static_trip =
      match (const_int defs parts.Scf.lb, const_int defs parts.Scf.ub,
             const_int defs parts.Scf.step)
      with
      | Some lb, Some ub, Some step when step > 0 ->
        Some (max 0 ((ub - lb + step - 1) / step))
      | _ -> None
    in
    Some
      {
        loop_key = Value.id parts.Scf.induction;
        pipelined;
        ii_directive;
        unroll;
        depth = spec.Fpga_spec.pipeline_depth_cycles;
        port_accesses = ports;
        rmw_port;
        cycles_per_iteration;
        static_trip;
        macs;
        fp_ops;
        int_ops;
        nested;
      }

let rec flatten_loops infos =
  List.concat_map (fun l -> l :: flatten_loops l.nested) infos

(* --- kernel analysis --- *)

let analyse_kernel spec fn =
  let defs = defs_table fn in
  let bundles = bundle_map fn in
  let body = if Func_d.has_body fn then Func_d.body fn else [] in
  let m_axi_bundles =
    Hashtbl.fold (fun _ b acc -> b :: acc) bundles []
    |> List.sort_uniq String.compare
  in
  let s_axilite_args =
    Op.fold
      (fun acc op ->
        if
          Hls.is_interface op
          && Hls.interface_bundle op = Some "control"
        then acc + 1
        else acc)
      0 fn
  in
  let loops =
    List.filter_map (analyse_loop spec defs bundles) (topmost_loops body)
  in
  let local_buffer_bytes =
    Op.fold
      (fun acc op ->
        if String.equal (Op.name op) "memref.alloca" then
          match Value.ty (Op.result1 op) with
          | Types.Memref mi -> (
            try
              acc
              + Types.memref_num_elements mi * Types.byte_size mi.Types.elt
            with Invalid_argument _ -> acc)
          | _ -> acc
        else acc)
      0 fn
  in
  let toplevel_macs = count_macs defs body in
  let dataflow =
    List.exists (fun o -> String.equal (Op.name o) "hls.dataflow") body
  in
  {
    fn_name = Option.value ~default:"kernel" (Func_d.func_name fn);
    m_axi_bundles;
    s_axilite_args;
    loops;
    local_buffer_bytes;
    toplevel_macs;
    dataflow;
  }

let pp_loop fmt l =
  Fmt.pf fmt
    "loop@%d: %s II=%d unroll=%d cyc/iter=%.2f rmw=%b ports=[%a]%s"
    l.loop_key
    (if l.pipelined then "pipelined" else "sequential")
    l.ii_directive l.unroll l.cycles_per_iteration l.rmw_port
    (Fmt.list ~sep:(Fmt.any ", ") (fun fmt (b, r, w) ->
         Fmt.pf fmt "%s:r%d/w%d" b r w))
    l.port_accesses
    (match l.static_trip with
    | Some t -> Fmt.str " trip=%d" t
    | None -> "")

let pp fmt ks =
  Fmt.pf fmt "kernel %s: m_axi=[%a] axilite=%d local_bytes=%d@."
    ks.fn_name
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    ks.m_axi_bundles ks.s_axilite_args ks.local_buffer_bytes;
  List.iter
    (fun l -> Fmt.pf fmt "  %a@." pp_loop l)
    (flatten_loops ks.loops)
