(** Named metrics registry: counters, gauges and bucketed histograms.
    All operations default to the process-wide {!default} registry;
    tests pass a private [?registry] for isolation. Metric names are
    dotted paths, e.g. ["passes.ops_removed"], ["device.bytes_h2d"].

    Histogram buckets are log-scaled (4 per decade over 1e-9 .. 1e9,
    plus underflow/overflow), shared across all histograms; p50/p90/p99
    are estimated by linear interpolation within the covering bucket,
    clamped to the observed min/max.

    Registries are not synchronised: the library runs on a single
    domain, and no operation may be called from two domains at once. *)

type t

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      count : int;
      sum : float;
      min_v : float;  (** [infinity] while the histogram is empty. *)
      max_v : float;  (** [neg_infinity] while the histogram is empty. *)
      buckets : int array;
          (** Per-bucket observation counts; index [i] covers
              [(bucket_lower i, bucket_upper i]]. *)
    }

exception Kind_mismatch of string
(** Raised when a name is reused with a different metric kind. *)

val create : unit -> t
val default : t

val incr : ?registry:t -> ?by:int -> string -> unit
val set_gauge : ?registry:t -> string -> float -> unit
val observe : ?registry:t -> string -> float -> unit

val find : ?registry:t -> string -> value option

val counter_value : ?registry:t -> string -> int
(** 0 when absent or not a counter. *)

val quantile : value -> float -> float option
(** [quantile v q] estimates the [q]-quantile ([0..1]) of a histogram
    value; [None] for empty histograms and non-histograms. *)

val histogram_quantile : ?registry:t -> string -> float -> float option
(** {!find} + {!quantile} in one step. *)

val histogram_buckets : value -> (float * int) list
(** [(upper_bound, count)] per bucket, in increasing bound order; the
    final bound is [infinity]. Empty for non-histograms. *)

val bucket_upper : int -> float
(** Upper bound of bucket [i] of the shared layout ([infinity] for the
    overflow bucket). *)

val n_buckets : int

val snapshot : ?registry:t -> unit -> (string * value) list
(** Sorted by name. *)

val reset : ?registry:t -> unit -> unit

val pp_value : Format.formatter -> value -> unit
(** Empty histograms print as ["count=0"]: min/mean/max/quantiles are
    omitted rather than rendering the infinity sentinels. *)

val pp : Format.formatter -> t -> unit

val json_of_value : value -> Json.t
(** One metric value as JSON; see {!to_json} for the empty-histogram
    contract. *)

val to_json : ?registry:t -> unit -> Json.t
(** Histogram entries include sum/min/mean/max, p50/p90/p99 and the
    populated buckets; an empty histogram serialises as just
    [{"type":"histogram","count":0}] with the derived fields omitted. *)
