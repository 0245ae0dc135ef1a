(** Minimal JSON tree used by the metrics registry and the Chrome
    trace-event exporter. NaN/infinite floats serialise as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val write_file : string -> t -> unit

val parse : string -> (t, string) result
(** Parse the subset the serialiser emits (all of JSON minus exotic
    number forms). Numbers written with '.', 'e' or 'E' parse as
    {!Float}, the rest as {!Int}; [\uXXXX] escapes decode to UTF-8. *)

