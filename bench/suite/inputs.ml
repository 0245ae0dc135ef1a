(* Seeded workload inputs. A seed changes which programs are compiled and
   how the job graph is wired, but every draw is balanced so that the
   total work, and with it the timings, barely moves between seeds:
   - the corpus takes the same number of programs from each generator,
     in antithetic pairs (a parameter and its mirror image in the range),
     so the summed parameters are the same for every seed;
   - the job mix has exactly as many jobs of each variant, in a seeded
     order, with seeded tenants and dependencies. *)

module Src = Ftn_linpack.Fortran_sources

type program = {
  name : string;
  source : string;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [lo, hi] drawn uniformly, with its mirror [lo + hi - x]. *)
let mirrored rng lo hi =
  let x = lo + Random.State.int rng (hi - lo + 1) in
  [ x; lo + hi - x ]

let pairs_per_generator = 2

(* 24 programs: two antithetic pairs from each of the six generators. *)
let corpus ~seed =
  let rng = Random.State.make [| seed |] in
  let simdlens = [| 1; 2; 4; 8; 10 |] in
  let generators =
    [
      (fun () ->
        mirrored rng 8 64
        |> List.map (fun k ->
               {
                 name = Fmt.str "many_kernels-k%d" k;
                 source = Src.many_kernels ~kernels:k ~n:128;
               }));
      (fun () ->
        mirrored rng 0 (Array.length simdlens - 1)
        |> List.map (fun i ->
               let simdlen = simdlens.(i) in
               {
                 name = Fmt.str "dot_product-s%d" simdlen;
                 source = Src.dot_product ~n:512 ~simdlen;
               }));
      (fun () ->
        List.init 2 (fun _ ->
            { name = "data_regions"; source = Src.data_regions ~n:512 }));
      (fun () ->
        mirrored rng 2 8
        |> List.map (fun steps ->
               {
                 name = Fmt.str "stencil-t%d" steps;
                 source = Src.stencil ~n:256 ~steps;
               }));
      (fun () ->
        mirrored rng 16 64
        |> List.map (fun n ->
               { name = Fmt.str "sgesl-n%d" n; source = Src.sgesl ~n }));
      (fun () ->
        mirrored rng 1000 10000
        |> List.map (fun n ->
               { name = Fmt.str "saxpy-n%d" n; source = Src.saxpy ~n }));
    ]
  in
  let programs =
    List.concat_map
      (fun g -> List.concat (List.init pairs_per_generator (fun _ -> g ())))
      generators
    |> Array.of_list
  in
  shuffle rng programs;
  Array.to_list programs

let job_variants =
  [|
    { name = "saxpy-4096"; source = Src.saxpy ~n:4096 };
    { name = "sgesl-32"; source = Src.sgesl ~n:32 };
    { name = "stencil-256x4"; source = Src.stencil ~n:256 ~steps:4 };
    { name = "dot_product-1024"; source = Src.dot_product ~n:1024 ~simdlen:8 };
  |]

type job = {
  job_name : string;
  variant : int;  (** Index into {!job_variants}. *)
  tenant : string;
  deps : string list;
}

let n_jobs = 1000

(* About one job in seven depends on one of the 16 jobs before it. *)
let jobs ~seed =
  let rng = Random.State.make [| seed; n_jobs |] in
  let variants =
    Array.init n_jobs (fun i -> i mod Array.length job_variants)
  in
  shuffle rng variants;
  let name i = Fmt.str "j%04d" i in
  List.init n_jobs (fun i ->
      let tenant = Fmt.str "t%d" (Random.State.int rng 4) in
      let deps =
        if i > 0 && Random.State.int rng 7 = 0 then
          [ name (i - 1 - Random.State.int rng (min 16 i)) ]
        else []
      in
      { job_name = name i; variant = variants.(i); tenant; deps })
