(* Order statistics and span self times for the benchmark suite. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), so the spreads this suite prints match
   the ones computed from its JSON results. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0))
  else
    let cut i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)

(* A span's self time: its duration minus the part of its interval that
   its children cover (overlapping children are counted once). Returns
   (span id, self seconds) for every span, in input order. *)
let self_times (spans : Ftn_obs.Span.span list) =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (sp : Ftn_obs.Span.span) ->
      match sp.parent with
      | Some p -> Hashtbl.add children p sp
      | None -> ())
    spans;
  List.map
    (fun (sp : Ftn_obs.Span.span) ->
      let lo = sp.start_s and hi = sp.start_s +. sp.dur_s in
      let intervals =
        Hashtbl.find_all children sp.id
        |> List.map (fun (c : Ftn_obs.Span.span) ->
               (Float.max lo c.start_s, Float.min hi (c.start_s +. c.dur_s)))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, lo) intervals
      in
      (sp.id, sp.dur_s -. covered))
    spans
