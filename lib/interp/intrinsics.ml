(* Runtime-library intrinsics: the print routines the frontend lowers
   Fortran's print statement onto, and the type-conversion / stream helpers
   the paper's precompiled device runtime library provides. Output is
   captured in a buffer so tests and tools can inspect it. *)

open Ftn_ir

type sink = {
  buf : Buffer.t;
  mutable echo : bool;  (** Also write to stdout. *)
}

let make_sink ?(echo = false) () = { buf = Buffer.create 256; echo }

let output sink s =
  Buffer.add_string sink.buf s;
  if sink.echo then print_string s

let contents sink = Buffer.contents sink.buf
let clear sink = Buffer.clear sink.buf

let format_float x =
  if Float.is_integer x && Float.abs x < 1e10 then Fmt.str "%.6f" x
  else Fmt.str "%.6g" x

(* A runner for a call with one operand, or [None] for any other arity. *)
let unary op f =
  match Op.operands op with
  | [ _ ] ->
    Some
      (fun st -> function
        | [ v ] -> f st v
        | _ -> raise (Interp.Interp_error "expected one operand"))
  | _ -> None

(* Handler for the ftn_print_* family. The callee and the text of a
   string print are resolved when the call is staged; the sink is read
   from the executing state, so the staged runner serves every run. *)
let print_handler sink_of : Interp.handler =
  Interp.handler ~domain:Interp.calls @@ fun op ->
  let print s =
    Some
      (fun st _ ->
        output (sink_of st) s;
        [])
  in
  let print1 f =
    unary op (fun st v ->
        output (sink_of st) (f v);
        [])
  in
  match Op.symbol_attr op "callee" with
  | Some "ftn_print_str" ->
    print (" " ^ Option.value ~default:"" (Op.string_attr op "text"))
  | Some "ftn_print_i32" -> print1 (fun v -> Fmt.str " %d" (Rtval.as_int v))
  | Some "ftn_print_i1" ->
    print1 (fun v -> if Rtval.as_bool v then " T" else " F")
  | Some ("ftn_print_f32" | "ftn_print_f64") ->
    print1 (fun v -> " " ^ format_float (Rtval.as_float v))
  | Some "ftn_print_newline" -> print "\n"
  | _ -> None

(* Device runtime-library calls (type conversion, stream IO) referenced by
   generated device code; functional no-op equivalents. *)
let runtime_library_handler : Interp.handler =
  Interp.handler ~domain:Interp.calls @@ fun op ->
  match Op.symbol_attr op "callee" with
  | Some ("_hls_f32_to_f64" | "_hls_f64_to_f32") ->
    unary op (fun _ v -> [ Rtval.Float (Rtval.as_float v) ])
  | Some "_hls_i32_to_f32" ->
    unary op (fun _ v -> [ Rtval.Float (float_of_int (Rtval.as_int v)) ])
  | Some
      ( "_ssdm_op_SpecInterface" | "_ssdm_op_SpecPipeline"
      | "_ssdm_op_SpecUnroll" | "_ssdm_op_SpecArrayPartition"
      | "_ssdm_op_SpecDataflow" ) ->
    Some (fun _ _ -> [])
  | _ -> None
