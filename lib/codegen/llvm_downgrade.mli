(** LLVM version downgrade (after Fortran-HLS [19]): rewrites emitted
    textual IR into LLVM-7-compatible form (the version AMD's open-sourced
    HLS backend is built on) and reports which rewrites fired. *)

type rewrite = {
  rw_name : string;
  rw_applied : int;  (** Occurrences rewritten. *)
}

type result = {
  text : string;  (** Stamped, downgraded IR. *)
  rewrites : rewrite list;
}

val replace_all : pat:string -> rep:string -> string -> string * int
(** Replaces every occurrence of [pat], leftmost first and without
    overlap, and counts them. Raises [Invalid_argument] if [pat] is
    empty. *)

val version_stamp : string

val run : string -> result
(** Raises [Failure] on constructs with no LLVM-7 equivalent (freeze). *)
