(** Small statistics helpers shared by the profiler and experiments.

    NaN handling: {!summarize} and {!percentile} (hence {!median})
    reject samples containing a NaN with [Invalid_argument]. A NaN
    would otherwise poison the order statistics silently — polymorphic
    comparison is inconsistent on NaN, and even a correct sort puts it
    at an arbitrary rank. Float sorts use [Float.compare]. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** population: divides the squared deviations by n *)
  stddev_sample : float;
      (** sample (Bessel-corrected): divides by n-1; 0 when count < 2 *)
  min : float;
  max : float;
}
(** Moment summary of a sample set. *)

val summarize : float array -> summary
(** [summarize xs] computes count/mean/stddev/min/max. Returns a zeroed
    summary for the empty array; raises [Invalid_argument] on NaN. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val geomean : float array -> float
(** Geometric mean; used for speedup averaging as in the paper (§4.3).
    Requires strictly positive entries; 0-length arrays yield 1.0. *)

val percentile : float array -> float -> float
(** [percentile xs p] for p in [0,100], linear interpolation between
    order statistics. The input need not be sorted. Raises
    [Invalid_argument] on the empty array or NaN entries. *)

val median : float array -> float
(** 50th percentile. *)
