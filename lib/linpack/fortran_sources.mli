(** The evaluation benchmarks as Fortran+OpenMP source (the paper's
    Listings 5 and 6 shapes), parameterised by problem size. *)

val saxpy : n:int -> string
(** SAXPY offloaded with [target parallel do simd simdlen(10)]. *)

val sgesl : n:int -> string
(** The SGESL update loop, offloaded per outer iteration with implicit
    device mappings. *)

val dot_product : n:int -> simdlen:int -> string
(** A reduction benchmark exercising the round-robin copy rewrite. *)

val data_regions : n:int -> string
(** Nested data regions, the paper's Listing 1 shape. *)

val many_kernels : kernels:int -> n:int -> string
(** [kernels] distinct offload regions over shared arrays (every other
    one a simd region), yielding that many independent device kernels —
    a compile-time workload for the device pipelines. *)

val stencil : n:int -> steps:int -> string
(** 1-D heat-diffusion stencil: two kernels per timestep inside one
    target data region. *)
