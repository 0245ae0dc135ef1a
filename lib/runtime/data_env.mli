(** Device data environment: named, reference-counted buffers per memory
    space — the runtime realisation of the device dialect's data-management
    semantics (paper, Section 3).

    Buffers persist after their count drops to zero so a later allocation
    of the same name reuses the storage (SGESL remaps the same arrays every
    outer iteration); only fresh storage pays the creation overhead. *)

type t

exception Device_data_error of string

val create : unit -> t

type key = private {
  name : string;
  memory_space : int;
  text : string;  (** ["space:name"], the table key. *)
}
(** An entry's identity. Build it once and reuse it: the executor makes
    one per device op, when the op is staged. *)

val key : name:string -> memory_space:int -> key

val alloc :
  t ->
  key ->
  elt:Ftn_ir.Types.t ->
  shape:int list ->
  Ftn_interp.Rtval.buffer * bool
(** Allocate or reuse the buffer registered under the key; the flag is
    true when fresh storage was created (for timing). *)

val lookup : t -> key -> Ftn_interp.Rtval.buffer option

val lookup_exn : t -> key -> Ftn_interp.Rtval.buffer
(** Raises {!Device_data_error} when no buffer is registered. *)

val acquire : t -> key -> unit
(** Increment the identifier's reference counter. *)

val release : t -> key -> unit
(** Decrement (floored at zero). *)

val exists : t -> key -> bool
(** Counter > 0 — the semantics of [device.data_check_exists]. *)

val refcount : t -> key -> int

val live_names : t -> string list
(** Sorted ["space:name"] keys with a positive counter. *)

val evict_unreferenced : ?except:key -> t -> int
(** Drop the storage of every zero-refcount entry — the recovery action
    for device allocation failures. [except] protects the entry being
    (re)allocated. Returns the number of buffers evicted; evicted names
    lose their contents. *)

val leaks : t -> (string * int) list
(** Sorted ["space:name"] keys still holding a positive counter — at
    teardown these are reference-count leaks in the lowered
    data-environment sequence. *)

val snapshot : t -> string
(** Deterministic dump of keys, counts, element types, shapes and exact
    cell contents (hex floats), for differential tests that require
    byte-identical state between two runs. *)
