(* LLVM version downgrade (after Fortran-HLS [19]): AMD's open-sourced HLS
   backend is built on LLVM 7, while a modern Flang emits current LLVM-IR.
   This pass rewrites the emitted textual IR into LLVM-7-compatible form
   and reports which rewrites fired. The emitter already avoids most
   post-7 constructs (opaque pointers, fneg); this pass catches the rest
   and stamps the header. *)

type rewrite = {
  rw_name : string;
  rw_applied : int;
}

type result = {
  text : string;
  rewrites : rewrite list;
}

(* The first occurrence of [pat] in [text] at or after [i], or -1;
   compares in place. *)
let find_from text pat i =
  let plen = String.length pat in
  let last = String.length text - plen in
  let rec go i =
    if i > last then -1
    else begin
      let j = ref 0 in
      while !j < plen && Char.equal text.[i + !j] pat.[!j] do
        incr j
      done;
      if !j = plen then i else go (i + 1)
    end
  in
  go i

(* Replace all occurrences of [pat] (plain, non-empty string) by [rep],
   leftmost first and without overlap; counts hits. The runs between
   hits are copied whole, and a text without a hit is returned as is. *)
let replace_all ~pat ~rep text =
  if String.length pat = 0 then
    invalid_arg "Llvm_downgrade.replace_all: empty pattern";
  match find_from text pat 0 with
  | -1 -> (text, 0)
  | first ->
    let buf = Buffer.create (String.length text) in
    let rec go start hit count =
      if hit < 0 then begin
        Buffer.add_substring buf text start (String.length text - start);
        (Buffer.contents buf, count)
      end
      else begin
        Buffer.add_substring buf text start (hit - start);
        Buffer.add_string buf rep;
        let next = hit + String.length pat in
        go next (find_from text pat next) (count + 1)
      end
    in
    go 0 first 0

let rewrites_table =
  [
    (* post-LLVM-7 attributes and keywords the backend rejects *)
    ("strip noundef", " noundef", "");
    ("strip mustprogress", "mustprogress ", "");
    ("strip willreturn", "willreturn ", "");
    ("strip nofree", "nofree ", "");
    ("strip nosync", "nosync ", "");
    (* fneg instruction (LLVM 8+) -> fsub from negative zero *)
    ("rewrite fneg", " fneg ", " fsub -0.000000e+00, ");
    (* freeze instruction (LLVM 10+) has no LLVM-7 equivalent; drop to a
       plain copy via bitcast-free alias is not expressible textually, so
       reject it loudly instead. *)
  ]

let version_stamp = "; downgraded for AMD HLS backend (LLVM 7 compatible)\n"

let run text =
  let text, rewrites =
    List.fold_left
      (fun (text, acc) (rw_name, pat, rep) ->
        let text, n = replace_all ~pat ~rep text in
        (text, { rw_name; rw_applied = n } :: acc))
      (text, []) rewrites_table
  in
  if find_from text "freeze " 0 >= 0 then
    failwith "llvm_downgrade: freeze instruction cannot be downgraded";
  { text = version_stamp ^ text; rewrites = List.rev rewrites }
