(* Hierarchical spans over two clocks. Wall-clock spans time real
   compiler work ([with_span] brackets a computation, nesting follows the
   dynamic call structure). Simulated spans place executor work on the
   simulated device timeline: the caller supplies start and duration, so
   a deterministic cost model produces a deterministic trace. Spans
   accumulate in a collector; the ambient collector is a process-wide
   default that any layer can swap out ([with_collector]) for isolation.
   Collectors are unsynchronised: the library runs on a single domain. *)

type clock =
  | Wall
  | Sim

type span = {
  id : int;
  parent : int option;
  name : string;
  clock : clock;
  start_s : float;
  mutable dur_s : float;
  mutable attrs : (string * string) list;
}

type t = {
  mutable spans : span list;  (** Reversed creation order. *)
  mutable stack : span list;  (** Open wall-clock spans, innermost first. *)
  mutable next_id : int;
}

let create () = { spans = []; stack = []; next_id = 0 }

let ambient = ref (create ())
let current () = !ambient

let with_collector c f =
  let saved = !ambient in
  ambient := c;
  Fun.protect ~finally:(fun () -> ambient := saved) f

let next_id c = c.next_id
let count c = c.next_id

let clear c =
  c.spans <- [];
  c.stack <- [];
  c.next_id <- 0

let spans c = List.rev c.spans

let set_attr sp ~key value =
  sp.attrs <- (key, value) :: List.remove_assoc key sp.attrs

let attr sp key = List.assoc_opt key sp.attrs

let fresh c ~parent ~name ~clock ~start_s ~dur_s ~attrs =
  let sp = { id = c.next_id; parent; name; clock; start_s; dur_s; attrs } in
  c.next_id <- c.next_id + 1;
  c.spans <- sp :: c.spans;
  sp

(* Bracket [f] in a wall-clock span. The span is passed to [f] so it can
   attach attributes computed during the work; it is closed (duration
   fixed) even when [f] raises. *)
let with_span_sp ?collector ?(attrs = []) ~name f =
  let c = match collector with Some c -> c | None -> current () in
  let parent = match c.stack with sp :: _ -> Some sp.id | [] -> None in
  let sp =
    fresh c ~parent ~name ~clock:Wall ~start_s:(Unix.gettimeofday ())
      ~dur_s:0.0 ~attrs
  in
  c.stack <- sp :: c.stack;
  Fun.protect
    ~finally:(fun () ->
      sp.dur_s <- Unix.gettimeofday () -. sp.start_s;
      c.stack <-
        (match c.stack with
        | top :: rest when top.id = sp.id -> rest
        | stack -> List.filter (fun s -> s.id <> sp.id) stack))
    (fun () -> f sp)

let with_span ?collector ?attrs ~name f =
  with_span_sp ?collector ?attrs ~name (fun _ -> f ())

(* Record a completed span on the simulated device timeline. *)
let record_sim ?collector ?(attrs = []) ?parent ~name ~start_s ~dur_s () =
  let c = match collector with Some c -> c | None -> current () in
  fresh c ~parent ~name ~clock:Sim ~start_s ~dur_s ~attrs

let pp_span fmt sp =
  let unit_, scale =
    match sp.clock with Wall -> ("ms", 1e3) | Sim -> ("us", 1e6)
  in
  Fmt.pf fmt "%s%-30s %8.3f %s%a"
    (match sp.parent with Some _ -> "  " | None -> "")
    sp.name (sp.dur_s *. scale) unit_
    (fun fmt attrs ->
      List.iter (fun (k, v) -> Fmt.pf fmt "  %s=%s" k v) (List.rev attrs))
    sp.attrs

let pp fmt c = Fmt.pf fmt "@[<v>%a@]" (Fmt.list pp_span) (spans c)
