(** Hierarchical spans over two clocks: real wall-clock time for compiler
    work and the simulated device timeline for executor work. Spans
    accumulate in a collector; most callers use the ambient one.
    Collectors are not synchronised: the library runs on a single
    domain, and no collector may be used from two domains at once. *)

type clock =
  | Wall
  | Sim

type span = {
  id : int;  (** Creation order within the collector. *)
  parent : int option;
  name : string;
  clock : clock;
  start_s : float;
  mutable dur_s : float;
  mutable attrs : (string * string) list;
}

type t

val create : unit -> t

val current : unit -> t
(** The ambient collector all [?collector]-less calls record into. *)

val with_collector : t -> (unit -> 'a) -> 'a
(** Make [c] ambient for the duration of [f]; restores on exit. *)

val count : t -> int
val clear : t -> unit

val spans : t -> span list
(** In creation order. *)

val set_attr : span -> key:string -> string -> unit
val attr : span -> string -> string option

val with_span_sp :
  ?collector:t ->
  ?attrs:(string * string) list ->
  name:string ->
  (span -> 'a) ->
  'a
(** Bracket [f] in a wall-clock span, passing the open span so [f] can
    attach attributes; nesting follows the dynamic call structure. The
    span is closed even when [f] raises. *)

val with_span :
  ?collector:t ->
  ?attrs:(string * string) list ->
  name:string ->
  (unit -> 'a) ->
  'a

val record_sim :
  ?collector:t ->
  ?attrs:(string * string) list ->
  ?parent:int ->
  name:string ->
  start_s:float ->
  dur_s:float ->
  unit ->
  span
(** Record a completed span on the simulated device timeline. *)

val pp_span : Format.formatter -> span -> unit
val pp : Format.formatter -> t -> unit
