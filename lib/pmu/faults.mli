(** Fault injection for the simulated PMU.

    Real PEBS/LBR profiles are noisy in ways our clean simulation is
    not: samples are lost when the kernel throttles the PMU, LBR cycle
    stamps jitter, the ring is partially overwritten between the PMI
    and the read-out, and PEBS attributes a miss to a PC a few
    instructions away from the faulting load ("skid"). This module is a
    seeded, configurable model of those effects, consumed by
    {!Sampler}. With {!none} (every knob at zero) the sampler's
    behaviour is bit-identical to an un-faulted one. *)

type config = {
  seed : int;  (** seed for the fault schedule's private {!Aptget_util.Rng} *)
  lbr_drop_rate : float;
      (** probability that a due LBR snapshot is lost entirely *)
  cycle_jitter : int;
      (** LBR cycle stamps are perturbed by a uniform offset in
          [-jitter, +jitter] at record time; 0 disables *)
  lbr_truncate_rate : float;
      (** probability that a snapshot only captures a suffix of the
          ring (partial overwrite between PMI and read-out) *)
  pebs_skid_rate : float;
      (** probability that a PEBS sample is attributed to a
          neighbouring PC instead of the faulting load *)
  pebs_skid_max : int;  (** maximum skid distance in PC slots *)
  throttle_budget : int;
      (** perf-style adaptive throttling: maximum samples (LBR + PEBS
          combined) admitted per {!field-throttle_window} cycles;
          0 disables throttling *)
  throttle_window : int;  (** throttling accounting window, in cycles *)
  throttle_backoff : float;
      (** factor applied to the sampling periods the first time a
          window exceeds its budget (>= 1) *)
}

val none : config
(** All fault knobs off. A sampler driven with this config behaves
    bit-identically to one created without a fault model. *)

val default_faulty : config
(** The documented default fault mix used by the robustness ablation:
    10 % LBR snapshot drops, +/-8 cycle stamp jitter, 5 % ring
    truncation, 20 % PEBS skid (max 2 slots), and a 256-samples /
    200k-cycles throttle budget. *)

val enabled : config -> bool
(** [false] exactly when every fault knob is off (drop, jitter,
    truncation and skid rates zero and no throttle budget). *)

type stats = {
  lbr_dropped : int;       (** snapshots lost to [lbr_drop_rate] *)
  lbr_truncated : int;     (** snapshots that lost ring entries *)
  stamps_jittered : int;   (** cycle stamps perturbed by a non-zero offset *)
  pebs_skidded : int;      (** PEBS samples attributed to a neighbour PC *)
  throttled : int;         (** samples rejected by the throttle *)
  backoff_factor : float;  (** cumulative period multiplier (1.0 = never throttled) *)
}

type t
(** Instantiated fault state: configuration, private RNG, throttle
    window accounting and counters. *)

val validate : config -> (unit, string) result
(** Check every knob's range (rates in [0, 1], non-negative jitter,
    positive window when throttling, backoff >= 1) without
    instantiating the model — lets a CLI reject a bad [--fault-*]
    value at the argument boundary instead of mid-pipeline. *)

val create : config -> t
(** Two states created from equal configs produce identical fault
    schedules (the model draws from its own seeded {!Aptget_util.Rng}).
    @raise Invalid_argument when {!validate} rejects the config. *)

val config : t -> config
val stats : t -> stats

(** {2 Decision points} — called by {!Sampler} at each hazard. Each
    draws from the RNG only when its knob is active, so a config with a
    single knob enabled leaves every other decision untouched. *)

val jitter_cycle : t -> int -> int
(** Perturb an LBR cycle stamp (clamped to >= 0). *)

val drop_lbr : t -> bool
(** Whether the due LBR snapshot is lost. *)

val truncate_ring : t -> int -> int
(** [truncate_ring t n] is how many of a snapshot's [n] entries survive:
    [n] itself, or on a truncation a count in [\[1, n - 1\]]. The
    survivors are always the newest entries. A snapshot of [n <= 1]
    entries is never truncated and draws nothing. *)

val skid_pc : t -> int -> int
(** Possibly displace a PEBS load PC by a non-zero offset in
    [-skid_max, +skid_max] (clamped to >= 0). *)

val throttle_admit : t -> cycle:int -> bool
(** Account one sample against the current window's budget. [false]
    means the sample is rejected; the first rejection in a window also
    multiplies {!backoff_factor} by [throttle_backoff]. Always [true]
    when [throttle_budget = 0]. *)

val backoff_factor : t -> float
(** Current cumulative sampling-period multiplier (>= 1). *)

val max_backoff : float
(** Upper bound on {!backoff_factor}: however hostile the schedule,
    the cumulative multiplier never exceeds this, keeping the
    stretched sampling period representable. *)
