(* Structured, leveled logger with a pluggable sink. The default sink
   writes "[level] message" lines to stderr; tests swap in a capturing
   sink. Messages below the active level are not even formatted. *)

type level =
  | Debug
  | Info
  | Warn
  | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let string_of_level = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type sink = level -> string -> unit

let stderr_sink : sink =
 fun level msg -> Fmt.epr "[%s] %s@." (string_of_level level) msg

(* Logging is off by default so library consumers (tests, benches) stay
   quiet unless the CLI or a test opts in. *)
let current_level = ref Error
let current_sink = ref stderr_sink

let set_level l = current_level := l
let level () = !current_level
let set_sink s = current_sink := s

let enabled l = severity l >= severity !current_level

let logf level fmt =
  if enabled level then Fmt.kstr (fun s -> !current_sink level s) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let debugf fmt = logf Debug fmt
let infof fmt = logf Info fmt
let warnf fmt = logf Warn fmt
let errorf fmt = logf Error fmt

(* Run [f] with all messages at [level] and above captured instead of
   emitted; restores the previous sink and level on exit. *)
let with_capture ?(level = Debug) f =
  let saved_sink = !current_sink and saved_level = !current_level in
  let captured = ref [] in
  current_sink := (fun l m -> captured := (l, m) :: !captured);
  current_level := level;
  Fun.protect
    ~finally:(fun () ->
      current_sink := saved_sink;
      current_level := saved_level)
    (fun () ->
      let r = f () in
      (r, List.rev !captured))
