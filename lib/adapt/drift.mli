(** Drift detection: deciding that a profile has aged.

    Pure scoring over structured evidence, no simulation: the adaptive
    loop ({!Adapt}) feeds each epoch's counter windows and epoch-level
    re-fit summary through one [t], and gets back a {!verdict}. Every
    decision is a deterministic function of the evidence stream, so the
    retune log is byte-identical across [--jobs 1/N].

    Evidence channels, each normalised so [>= 1.0] means "drifted":
    - {b late} — {!Aptget_machine.Machine.late_prefetch_ratio} of a
      window's counter delta: prefetches landing after their demand
      load, the distance is too short;
    - {b early} — {!Aptget_machine.Machine.early_evict_ratio}:
      prefetched lines evicted before use, the distance is too long or
      the working set shifted;
    - {b useless} — {!Aptget_machine.Machine.useless_prefetch_ratio}:
      prefetches probing already-cached lines, the working set shrank
      into cache and the slice is pure overhead;
    - {b mpki} — relative jump of the window's LLC-miss MPKI against
      the reference taken when the current plan was adopted;
    - {b iter} — relative shift of the median iteration time observed
      by the concurrent sampler (epoch-grained, from the re-fit);
    - {b stale-hints} — the program's structural fingerprint no longer
      matches the hints (validation dropped some), scored as an
      immediate drift vote.

    A window is {e drifted} when its best component score reaches 1.0;
    [hysteresis] consecutive drifted windows raise a verdict. Epoch
    evidence joins as one virtual window that can extend — but never
    reset — the streak. After a retune, [min_dwell] epochs pass before
    another verdict may fire (suppressions are counted: the
    oscillation guard).

    The {e first} epoch after {!create} only calibrates: its windows
    establish the reference under the plan actually running (the
    priming profile's reference describes the unhinted program, which
    successful prefetching is supposed to change), and its verdict is
    always [Stable]. Every retune re-calibrates via {!note_retune}. *)

type config = {
  late_threshold : float;  (** late ratio scored as 1.0 (default 0.25) *)
  early_threshold : float;  (** early-evict ratio scored as 1.0 (0.25) *)
  useless_threshold : float;  (** useless ratio scored as 1.0 (0.85) *)
  mpki_jump : float;  (** relative MPKI delta scored as 1.0 (0.5) *)
  iter_jump : float;  (** relative iteration-time delta as 1.0 (0.75) *)
  hysteresis : int;  (** consecutive drifted windows per verdict (3) *)
  min_dwell : int;  (** verdict-free epochs after a retune (1) *)
  min_window_instructions : int;
      (** windows retiring fewer instructions are ignored (2000) *)
}

val default_config : config

type reference = {
  ref_mpki : float;  (** MPKI when the current plan was adopted *)
  ref_iter : float option;  (** median iteration time, when observed *)
}

type verdict = Stable | Drifted of { score : float; cause : string }

type epoch_eval = {
  ev_windows : int;  (** windows scored (above the instruction floor) *)
  ev_drifted : int;  (** of which drifted *)
  ev_score : float;  (** max component score seen this epoch *)
  ev_cause : string;  (** dominant component, ["-"] when none scored *)
  ev_streak : int;  (** current streak, carried across epochs *)
  ev_suppressed : bool;  (** verdict was due but the dwell guard held *)
}

type t

val create : ?config:config -> reference -> t
(** @raise Invalid_argument on non-positive thresholds, [hysteresis < 1]
    or [min_dwell < 0]. *)

val config : t -> config
val reference : t -> reference
val streak : t -> int

val calibrated : t -> bool
(** False until the first {!end_epoch} (or {!note_retune}). *)

val suppressed_total : t -> int
(** Verdicts held back by the dwell guard since {!create}. *)

val begin_epoch : t -> unit
val observe_window : t -> Aptget_machine.Machine.window_report -> unit

val end_epoch :
  t -> ?iter_median:float -> ?stale_hints:bool -> unit -> verdict * epoch_eval
(** Fold the epoch-grained evidence, tick the dwell clock, and rule. *)

val note_retune : t -> reference -> unit
(** A retune was executed (whether or not it improved the plan): adopt
    the new reference, clear the streak, arm the dwell guard. *)

val verdict_to_string : verdict -> string
(** ["stable"] or ["drift:<cause>"]. *)
