(* Canned pass pipelines reproducing the paper's Figure 2 flow. *)

open Ftn_ir

type options = {
  data : Lower_omp_data.options;
  hls : Lower_omp_to_hls.options;
  canonicalize : bool;
}

let default_options =
  {
    data = Lower_omp_data.default_options;
    hls = Lower_omp_to_hls.default_options;
    canonicalize = true;
  }

let maybe_canon opts passes =
  if opts.canonicalize then passes @ [ Canonicalize.pass ] else passes

(* Core+omp module -> host module with device ops + nested fpga module. *)
let host_passes ?(options = default_options) () =
  maybe_canon options
    [
      Lower_acc_to_omp.pass;
      Lower_omp_data.pass ~options:options.data ();
      Lower_omp_target.pass;
    ]

(* Device (fpga) module -> hls dialect form. *)
let device_passes ?(options = default_options) () =
  maybe_canon options [ Lower_omp_to_hls.pass ~options:options.hls () ]

(* Device hls module -> llvm dialect (ready for LLVM-IR emission). *)
let device_llvm_passes () = [ Hls_to_func.pass; Core_to_llvm.pass ]

type compiled = {
  combined : Op.t;  (** After data+target lowering, before splitting. *)
  host : Op.t;
  device_core : Op.t option;  (** Device module at core+omp level. *)
  device_hls : Op.t option;  (** After lower-omp-loops-to-hls. *)
  device_llvm : Op.t option;  (** llvm dialect form. *)
  stages : Pass.stage_record list;
}

(* Run the full mid-end starting from a core+omp module (i.e. the output of
   Frontend.to_core). *)
let run_mid_end ?(options = default_options) ?(to_llvm = true) m =
  let all_stages = ref [] in
  let record rs = all_stages := !all_stages @ rs in
  (* The device modules are canonically renumbered, so the emitted
     kernels' SSA names are dense and do not depend on how the passes
     allocated fresh ids. *)
  let run_device passes d =
    let out, stages = Pass.run_pipeline ~verify_between:true passes d in
    (Op.renumber out, stages)
  in
  let combined =
    Ftn_obs.Span.with_span ~name:"mid_end.host" (fun () ->
        let combined, stages =
          Pass.run_pipeline ~verify_between:true (host_passes ~options ()) m
        in
        record stages;
        combined)
  in
  let split =
    Ftn_obs.Span.with_span ~name:"mid_end.split_modules" (fun () ->
        Split_modules.run combined)
  in
  let device_core = split.Split_modules.device in
  let device_hls, device_llvm =
    match device_core with
    | None -> (None, None)
    | Some d ->
      let hls =
        Ftn_obs.Span.with_span ~name:"mid_end.device" (fun () ->
            let hls, stages = run_device (device_passes ~options ()) d in
            record stages;
            hls)
      in
      if to_llvm then begin
        let ll =
          Ftn_obs.Span.with_span ~name:"mid_end.device_llvm" (fun () ->
              let ll, stages = run_device (device_llvm_passes ()) hls in
              record stages;
              ll)
        in
        (Some hls, Some ll)
      end
      else (Some hls, None)
  in
  {
    combined;
    host = split.Split_modules.host;
    device_core;
    device_hls;
    device_llvm;
    stages = !all_stages;
  }
