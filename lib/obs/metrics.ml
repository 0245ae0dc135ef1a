(* Named metrics registry: counters (monotonic ints), gauges (last-set
   floats) and histograms. Every layer of the pipeline reports into the
   default registry; tests create private registries for isolation.

   Histograms are bucketed: log-scaled boundaries spanning 1e-9 .. 1e9
   (4 buckets per decade) plus an underflow and an overflow bucket, so a
   single layout covers nanosecond launch overheads and megabyte
   transfer sizes alike. Quantiles are estimated by linear interpolation
   within the bucket containing the requested rank, clamped to the
   observed min/max.

   Registries are unsynchronised: the library runs on a single domain. *)

let buckets_per_decade = 4
let min_exp = -9.0
let max_exp = 9.0

(* Finite bucket k (1-based within the finite range) has upper bound
   10^(min_exp + k/bpd); bucket 0 is the underflow bucket (v <= 1e-9,
   including zero and negatives) and the last is overflow (v > 1e9). *)
let n_finite =
  int_of_float ((max_exp -. min_exp) *. float_of_int buckets_per_decade)

let n_buckets = n_finite + 2

let bucket_upper k =
  if k >= n_buckets - 1 then infinity
  else 10.0 ** (min_exp +. (float_of_int k /. float_of_int buckets_per_decade))

let bucket_lower k =
  if k <= 0 then neg_infinity
  else
    10.0
    ** (min_exp +. (float_of_int (k - 1) /. float_of_int buckets_per_decade))

let bucket_index v =
  if Float.is_nan v then 0
  else if v <= bucket_upper 0 then 0
  else if v > bucket_upper (n_buckets - 2) then n_buckets - 1
  else
    let x = (Float.log10 v -. min_exp) *. float_of_int buckets_per_decade in
    (* ceil, so a value exactly on a boundary lands in the bucket whose
       upper bound it is (le semantics) *)
    let k = int_of_float (Float.ceil x) in
    if k < 1 then 1 else if k > n_buckets - 2 then n_buckets - 2 else k

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : int array;  (* length n_buckets *)
}

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of histogram

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      count : int;
      sum : float;
      min_v : float;
      max_v : float;
      buckets : int array;
    }

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 32 }
let default = create ()

exception Kind_mismatch of string

let kind_error name =
  raise
    (Kind_mismatch
       (Printf.sprintf "metric %S already registered with another kind" name))

let get_metric ?(registry = default) name make =
  match Hashtbl.find_opt registry.metrics name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.replace registry.metrics name m;
    m

let incr ?registry ?(by = 1) name =
  match get_metric ?registry name (fun () -> Counter (ref 0)) with
  | Counter r -> r := !r + by
  | _ -> kind_error name

let set_gauge ?registry name v =
  match get_metric ?registry name (fun () -> Gauge (ref 0.0)) with
  | Gauge r -> r := v
  | _ -> kind_error name

let fresh_histogram () =
  {
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
    buckets = Array.make n_buckets 0;
  }

let observe ?registry name v =
  match get_metric ?registry name (fun () -> Histogram (fresh_histogram ())) with
  | Histogram h ->
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    h.min_v <- Float.min h.min_v v;
    h.max_v <- Float.max h.max_v v;
    let k = bucket_index v in
    h.buckets.(k) <- h.buckets.(k) + 1
  | _ -> kind_error name

let freeze = function
  | Counter r -> Counter_v !r
  | Gauge r -> Gauge_v !r
  | Histogram h ->
    Histogram_v
      {
        count = h.count;
        sum = h.sum;
        min_v = h.min_v;
        max_v = h.max_v;
        buckets = Array.copy h.buckets;
      }

let find ?(registry = default) name =
  Option.map freeze (Hashtbl.find_opt registry.metrics name)

let counter_value ?registry name =
  match find ?registry name with Some (Counter_v n) -> n | _ -> 0

let snapshot ?(registry = default) () =
  Hashtbl.fold (fun k m acc -> (k, freeze m) :: acc) registry.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset ?(registry = default) () = Hashtbl.reset registry.metrics

(* Quantile estimation: find the bucket holding rank q*count, then
   interpolate linearly inside it. The underflow/overflow buckets have no
   finite edge, so they borrow the observed min/max; every estimate is
   clamped to [min_v, max_v] (exact for single-bucket histograms). *)
let quantile_of ~count ~min_v ~max_v (buckets : int array) q =
  if count = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int count in
    let k = ref 0 and cum = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + buckets.(i);
         if float_of_int !cum >= rank && buckets.(i) > 0 then begin
           k := i;
           raise Exit
         end
       done;
       (* rank 0 with leading empty buckets: fall back to the first
          populated bucket *)
       (try
          for i = 0 to n_buckets - 1 do
            if buckets.(i) > 0 then begin
              k := i;
              raise Exit
            end
          done
        with Exit -> ())
     with Exit -> ());
    let k = !k in
    let lo =
      let l = bucket_lower k in
      if Float.is_finite l then Float.max l min_v else min_v
    in
    let hi =
      let h = bucket_upper k in
      if Float.is_finite h then Float.min h max_v else max_v
    in
    let in_bucket = buckets.(k) in
    let below = ref 0 in
    for i = 0 to k - 1 do
      below := !below + buckets.(i)
    done;
    let frac =
      if in_bucket = 0 then 0.0
      else
        Float.max 0.0
          (Float.min 1.0 ((rank -. float_of_int !below) /. float_of_int in_bucket))
    in
    let v = lo +. ((hi -. lo) *. frac) in
    Some (Float.max min_v (Float.min max_v v))
  end

let quantile value q =
  match value with
  | Histogram_v { count; min_v; max_v; buckets; _ } ->
    quantile_of ~count ~min_v ~max_v buckets q
  | _ -> None

let histogram_quantile ?registry name q =
  match find ?registry name with
  | Some v -> quantile v q
  | None -> None

(* (upper_bound, count) per bucket, for exporters. *)
let histogram_buckets = function
  | Histogram_v { buckets; _ } ->
    Array.to_list (Array.mapi (fun k n -> (bucket_upper k, n)) buckets)
  | _ -> []

let pp_value fmt = function
  | Counter_v n -> Fmt.pf fmt "%d" n
  | Gauge_v v -> Fmt.pf fmt "%g" v
  | Histogram_v { count; sum; min_v; max_v; buckets } ->
    (* Empty histograms carry min_v = inf / max_v = -inf sentinels: omit
       every derived statistic rather than printing them. *)
    if count = 0 then Fmt.pf fmt "count=0"
    else
      let q p =
        match quantile_of ~count ~min_v ~max_v buckets p with
        | Some v -> v
        | None -> Float.nan
      in
      Fmt.pf fmt
        "count=%d sum=%g min=%g mean=%g max=%g p50=%.3g p90=%.3g p99=%.3g"
        count sum min_v
        (sum /. float_of_int count)
        max_v (q 0.5) (q 0.9) (q 0.99)

let pp fmt registry =
  Fmt.pf fmt "@[<v>%a@]"
    (Fmt.list (fun fmt (name, v) -> Fmt.pf fmt "%-28s %a" name pp_value v))
    (snapshot ~registry ())

let json_of_value = function
  | Counter_v n -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int n) ]
  | Gauge_v v -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
  | Histogram_v { count; sum; min_v; max_v; buckets } ->
    let base = [ ("type", Json.String "histogram"); ("count", Json.Int count) ] in
    if count = 0 then Json.Obj base
    else
      let q p =
        match quantile_of ~count ~min_v ~max_v buckets p with
        | Some v -> Json.Float v
        | None -> Json.Null
      in
      let populated =
        List.filter
          (fun (_, n) -> n > 0)
          (Array.to_list (Array.mapi (fun k n -> (bucket_upper k, n)) buckets))
      in
      Json.Obj
        (base
        @ [
            ("sum", Json.Float sum);
            ("min", Json.Float min_v);
            ("mean", Json.Float (sum /. float_of_int count));
            ("max", Json.Float max_v);
            ("p50", q 0.5);
            ("p90", q 0.9);
            ("p99", q 0.99);
            ( "buckets",
              Json.List
                (List.map
                   (fun (le, n) ->
                     Json.Obj
                       [
                         ( "le",
                           if Float.is_finite le then Json.Float le
                           else Json.String "+Inf" );
                         ("count", Json.Int n);
                       ])
                   populated) );
          ])

let to_json ?(registry = default) () =
  Json.Obj
    (List.map (fun (name, v) -> (name, json_of_value v)) (snapshot ~registry ()))
