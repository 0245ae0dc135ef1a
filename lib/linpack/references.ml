(* OCaml reference implementations of the evaluation kernels (for
   numerical verification of the compiled pipelines) plus the full
   single-precision LINPACK factor/solve pair the benchmarks originate
   from. Floating arithmetic is done in double and rounded to single at
   each store, mirroring Fortran REAL semantics closely enough for
   element-wise comparison. *)

let to_f32 = Ftn_ir.Types.round_f32

(* y(i) = y(i) + a * x(i) *)
let saxpy ~a ~x ~y =
  Array.iteri (fun i xi -> y.(i) <- to_f32 (y.(i) +. to_f32 (a *. xi))) x

(* The benchmark initialisation of Fortran_sources.saxpy. *)
let saxpy_inputs ~n =
  let x = Array.init n (fun i -> to_f32 (float_of_int (i + 1) *. 0.5)) in
  let y = Array.init n (fun i -> to_f32 (float_of_int (n - (i + 1)) *. 0.25)) in
  (x, y)

(* The paper's SGESL update loop (Listing 6), sequential reference. *)
let sgesl_update ~n ~a ~b ~ipvt =
  for k = 1 to n - 1 do
    let l = ipvt.(k - 1) in
    let t = b.(l - 1) in
    if l <> k then begin
      b.(l - 1) <- b.(k - 1);
      b.(k - 1) <- t
    end;
    for j = k + 1 to n do
      b.(j - 1) <- to_f32 (b.(j - 1) +. to_f32 (t *. a.(j - 1)))
    done
  done

(* Benchmark initialisation of Fortran_sources.sgesl. The literal 0.001
   is a default real, so it is its f32 value before it multiplies. *)
let sgesl_inputs ~n =
  let a =
    Array.init n (fun i ->
        to_f32 (to_f32 0.001 *. float_of_int (((i + 1) mod 7) + 1)))
  in
  let b =
    Array.init n (fun i -> to_f32 (float_of_int ((i + 1) mod 13) *. 0.5))
  in
  let ipvt = Array.init n (fun i -> i + 1) in
  (a, b, ipvt)

let dot ~x ~y =
  let acc = ref 0.0 in
  Array.iteri (fun i xi -> acc := to_f32 (!acc +. to_f32 (xi *. y.(i)))) x;
  !acc

let dot_inputs ~n =
  let x = Array.init n (fun i -> to_f32 (float_of_int ((i + 1) mod 9) *. 0.125)) in
  let y = Array.init n (fun i -> to_f32 (float_of_int ((i + 1) mod 5) *. 0.25)) in
  (x, y)

(* --- full LINPACK single-precision factor and solve --- *)

(* Column-major n*n matrix stored as a.(j).(i) = A(i+1, j+1)? We keep a
   flat array with column-major layout: a.((j * n) + i) = A(i+1, j+1). *)

let idx n i j = (j * n) + i

(* sgefa: LU factorisation with partial pivoting. Returns info (0 = ok). *)
let sgefa ~n a ipvt =
  let info = ref 0 in
  for k = 0 to n - 2 do
    (* find pivot *)
    let l = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(idx n i k) > Float.abs a.(idx n !l k) then l := i
    done;
    ipvt.(k) <- !l + 1;
    if a.(idx n !l k) = 0.0 then info := k + 1
    else begin
      if !l <> k then begin
        let t = a.(idx n !l k) in
        a.(idx n !l k) <- a.(idx n k k);
        a.(idx n k k) <- t
      end;
      let t = to_f32 (-1.0 /. a.(idx n k k)) in
      for i = k + 1 to n - 1 do
        a.(idx n i k) <- to_f32 (a.(idx n i k) *. t)
      done;
      for j = k + 1 to n - 1 do
        let t = a.(idx n !l j) in
        if !l <> k then begin
          a.(idx n !l j) <- a.(idx n k j);
          a.(idx n k j) <- t
        end;
        for i = k + 1 to n - 1 do
          a.(idx n i j) <- to_f32 (a.(idx n i j) +. to_f32 (t *. a.(idx n i k)))
        done
      done
    end
  done;
  ipvt.(n - 1) <- n;
  if a.(idx n (n - 1) (n - 1)) = 0.0 then info := n;
  !info

(* sgesl: solves A x = b using the factors from sgefa (job = 0). *)
let sgesl ~n a ipvt b =
  (* forward elimination *)
  for k = 0 to n - 2 do
    let l = ipvt.(k) - 1 in
    let t = b.(l) in
    if l <> k then begin
      b.(l) <- b.(k);
      b.(k) <- t
    end;
    for i = k + 1 to n - 1 do
      b.(i) <- to_f32 (b.(i) +. to_f32 (t *. a.(idx n i k)))
    done
  done;
  (* back substitution *)
  for kb = 0 to n - 1 do
    let k = n - 1 - kb in
    b.(k) <- to_f32 (b.(k) /. a.(idx n k k));
    let t = to_f32 (-.b.(k)) in
    for i = 0 to k - 1 do
      b.(i) <- to_f32 (b.(i) +. to_f32 (t *. a.(idx n i k)))
    done
  done

(* Residual || A x - b ||_inf for testing the solver. *)
let residual ~n a_orig x b_orig =
  let r = ref 0.0 in
  for i = 0 to n - 1 do
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      s := !s +. (a_orig.(idx n i j) *. x.(j))
    done;
    r := Float.max !r (Float.abs (!s -. b_orig.(i)))
  done;
  !r
