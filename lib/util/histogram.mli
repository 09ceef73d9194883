(** Fixed-width binned histograms.

    The profiler histograms loop-iteration latencies (in cycles) before
    running peak detection over the bin counts (paper §3.2, Fig. 4). *)

type t
(** A histogram with uniform bin width over [lo, hi). *)

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] builds an empty histogram. Requires
    [lo < hi] and [bins > 0]. Samples outside [lo, hi) are clamped into
    the first/last bin so no observation is silently dropped. *)

val add : t -> float -> unit
(** Record one observation. *)

val counts : t -> float array
(** Per-bin counts, index 0 = lowest bin. A fresh copy. *)

val total : t -> int
(** Number of observations recorded. *)

val bin_center : t -> int -> float
(** [bin_center t i] is the representative value of bin [i]. *)

val bin_width : t -> float

val of_samples : ?bins:int -> float array -> t
(** Convenience: histogram spanning [min, max] of the samples (with a
    small margin), default 128 bins. Requires a non-empty sample set. *)
