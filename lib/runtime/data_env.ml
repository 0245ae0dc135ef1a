(* Device data environment: named, reference-counted buffers per memory
   space — the runtime realisation of the device dialect's data-management
   semantics (paper, Section 3). Buffers persist after their count drops to
   zero so a later allocation of the same name reuses the storage (the
   common pattern in SGESL, where the same arrays are remapped on every
   outer iteration); only fresh storage pays the buffer-creation overhead. *)

open Ftn_interp

type entry = {
  mutable buffer : Rtval.buffer option;
  mutable refcount : int;
}

type t = {
  entries : (string, entry) Hashtbl.t;  (** Keyed "space:name". *)
}

exception Device_data_error of string

let create () = { entries = Hashtbl.create 16 }

(* An entry's identity, with its "space:name" table key built once: the
   executor makes one per device op when the op is staged. *)
type key = {
  name : string;
  memory_space : int;
  text : string;
}

let key ~name ~memory_space =
  { name; memory_space; text = string_of_int memory_space ^ ":" ^ name }

let find t k = Hashtbl.find_opt t.entries k.text

let get_entry t k =
  match find t k with
  | Some e -> e
  | None ->
    let e = { buffer = None; refcount = 0 } in
    Hashtbl.replace t.entries k.text e;
    e

(* Allocate (or reuse) the buffer for [k]; returns the buffer and
   whether fresh storage was created (for timing). *)
let alloc t k ~elt ~shape =
  let e = get_entry t k in
  match e.buffer with
  | Some b when b.Rtval.shape = shape && Ftn_ir.Types.equal b.Rtval.elt elt ->
    (b, false)
  | Some _ | None ->
    let b =
      Rtval.alloc_buffer ~memory_space:k.memory_space ~label:k.name elt shape
    in
    e.buffer <- Some b;
    (b, true)

let lookup t k =
  match find t k with
  | Some { buffer = Some b; _ } -> Some b
  | Some { buffer = None; _ } | None -> None

let lookup_exn t k =
  match lookup t k with
  | Some b -> b
  | None ->
    raise
      (Device_data_error
         (Fmt.str "no device data named %S in memory space %d" k.name
            k.memory_space))

let acquire t k =
  let e = get_entry t k in
  e.refcount <- e.refcount + 1

(* Over-releasing (double device.data_release, or releasing a name that was
   never acquired) indicates a refcount bug in the lowered data-environment
   sequence. The count still clamps at zero so the environment stays usable,
   but the event is surfaced instead of masked. *)
let over_release k reason =
  Ftn_obs.Metrics.incr "data_env.over_release";
  Ftn_diag.Diag_engine.warning Ftn_diag.Diag_engine.default
    (Fmt.str "release of device data %S in memory space %d %s" k.name
       k.memory_space reason)

let release t k =
  match find t k with
  | Some e when e.refcount > 0 -> e.refcount <- e.refcount - 1
  | Some _ ->
    over_release k "whose reference count is already 0 (double release?)"
  | None -> over_release k "that was never acquired"

let exists t k =
  match find t k with Some e -> e.refcount > 0 | None -> false

let refcount t k = match find t k with Some e -> e.refcount | None -> 0

let live_names t =
  Hashtbl.fold
    (fun k e acc -> if e.refcount > 0 then k :: acc else acc)
    t.entries []
  |> List.sort String.compare

(* Drop the storage of zero-refcount entries — the recovery action for
   device allocation failures (freeing unpinned buffers is how a real
   runtime answers CL_MEM_OBJECT_ALLOCATION_FAILURE). [except] protects
   the entry currently being (re)allocated so the victim is never the
   buffer we are trying to produce. Evicted names lose their contents:
   a later allocation recreates fresh zeroed storage. *)
let evict_unreferenced ?except t =
  let keep = match except with Some k -> k.text | None -> "" in
  Hashtbl.fold
    (fun k e n ->
      if k <> keep && e.refcount = 0 && e.buffer <> None then begin
        e.buffer <- None;
        n + 1
      end
      else n)
    t.entries 0

let leaks t =
  Hashtbl.fold
    (fun k e acc -> if e.refcount > 0 then (k, e.refcount) :: acc else acc)
    t.entries []
  |> List.sort compare

(* Deterministic dump of the complete environment — keys, counts, element
   types, shapes and exact cell contents (hex floats) — so differential
   tests can require byte-identical state across fault-free and
   transient-fault runs. *)
let snapshot t =
  let buf = Buffer.create 256 in
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.entries []
  |> List.sort compare
  |> List.iter (fun (k, e) ->
         Buffer.add_string buf (Fmt.str "%s rc=%d" k e.refcount);
         (match e.buffer with
         | None -> Buffer.add_string buf " (no storage)"
         | Some b ->
           Buffer.add_string buf
             (Fmt.str " %s[%s]"
                (Ftn_ir.Types.to_string b.Rtval.elt)
                (String.concat "x" (List.map string_of_int b.Rtval.shape)));
           (match b.Rtval.mem with
           | Rtval.F _ | Rtval.F32 _ ->
             Array.iter
               (fun f -> Buffer.add_string buf (Fmt.str " %h" f))
               (Rtval.float_buffer b)
           | Rtval.I is ->
             Array.iter (fun i -> Buffer.add_string buf (Fmt.str " %d" i)) is));
         Buffer.add_char buf '\n');
  Buffer.contents buf
