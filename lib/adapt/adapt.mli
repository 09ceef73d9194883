(** Online re-optimization: notice an aging profile and retune mid-run.

    The loop runs one {!epoch} per program segment (phase): a
    {!Aptget_core.Pipeline.measure} of the hinted program while the PMU
    sampler re-profiles it {e inside the simulator} and the cache
    hierarchy streams counter-delta windows. The {!Drift} detector
    scores each window; when hysteresis worth of consecutive windows
    drift (and the post-retune dwell guard is clear), the loop asks its
    circuit breaker for a retune slot and walks the degradation
    ladder:

    + {b retuned} — Eq. 1 re-solved from the live re-fit; the resulting
      hints address the {e rewritten} program and travel through the
      fingerprint remap path ({!Aptget_core.Pipeline.run_guarded} with
      remap) to reach a fresh build. Admitted only above the guard
      floor; a re-fit measuring below it is quarantined like any stale
      profile.
    + {b remapped} — the last-good hints document re-admitted through
      the same guarded remap path.
    + {b aj} — A&J's fixed-distance static injection (the guard's
      fallback when both documents fail the floor but A&J clears it).
    + {b pinned} — the unmodified baseline: hints are held but fully
      vetoed, so a later retune can still re-admit them.

    Every decision is a deterministic function of simulated evidence —
    the retune log is byte-identical across [--jobs 1/N] — and every
    supervised run sits under the watchdog's measure budget: a timed
    out retune keeps the current plan and charges the breaker. When
    re-profiling is unavailable (e.g. the PMU fault model eats every
    sample), the re-fit yields nothing and the ladder starts at the
    last-good document. *)

type config = {
  drift : Drift.config;
  window_cycles : int;  (** counter-window size (default 100_000) *)
  floor : float;
      (** the regression guard's floor for retunes (default
          {!Aptget_core.Pipeline.default_floor}) *)
  watchdog : Aptget_core.Watchdog.config;
  breaker : Aptget_core.Breaker.config;  (** per-run retune breaker *)
  options : Aptget_profile.Profiler.options;
      (** sampler construction (periods, faults), re-fit shaping, and
          the machine every epoch and guard run simulates *)
}

val default_config : config

type plan =
  | Hinted of Aptget_profile.Hints_file.doc * Aptget_passes.Aptget_pass.hint list
  | Aj_static
  | Pinned of Aptget_profile.Hints_file.doc * Aptget_passes.Aptget_pass.hint list
      (** hints held but vetoed: the epoch runs the unmodified kernel *)

type action =
  | No_drift
  | Dwell_suppressed  (** verdict due, held by the dwell guard *)
  | Breaker_refused  (** verdict due, retune slot refused *)
  | No_candidate  (** nothing to evaluate: no re-fit, no last-good doc *)
  | Retuned of float  (** re-fit admitted, with its guarded speedup *)
  | Remapped of float  (** last-good doc re-admitted *)
  | Aj_fallback of float
  | Pinned_baseline of float
  | Retune_timed_out  (** watchdog fired mid-retune; plan kept *)

val action_to_string : action -> string

val rung_of_action : action -> (int * string) option
(** Ladder rung (0 = retuned .. 3 = pinned) of an executed retune;
    [None] for non-retune actions. *)

(** One epoch: a supervised hinted run of a segment, built fresh, its
    hints validated and injected (an empty or fully stale list takes
    the pass's A&J static fallback — the bottom rung of the ladder, not
    an unprefetched run; a pinned plan's hints are fully vetoed, so the
    unmodified kernel runs), executed under the watchdog's measure
    budget with the loop's sampler {!Aptget_pmu.Sampler.reset} and
    riding along (its fault model keeps its state) and
    [window_cycles]-sized counter windows collected. Deterministic:
    same seed and config in, same epoch out (modulo [wall_seconds]). *)
type epoch = {
  e_measurement : Aptget_core.Pipeline.measurement;
      (** the hinted run of this segment *)
  e_windows : Aptget_machine.Machine.window_report list;
      (** periodic counter-delta windows, in execution order *)
  e_refit : Aptget_profile.Profiler.t option;
      (** incremental Eq. 1 re-fit from the sampler's observations of
          the {e rewritten} kernel ([None] when the analysis failed).
          Its hint PCs address the rewritten program, so a retune
          routes them through the remap path
          ({!Aptget_core.Pipeline.run_guarded} with [remap]) to reach a
          fresh build. *)
  e_hints_dropped : (Aptget_passes.Aptget_pass.hint * string) list;
      (** stale hints rejected before injection, with reasons *)
}

type segment_result = {
  s_index : int;
  s_workload : string;
  s_plan : string;  (** ["hints:<n>"], ["aj"] or ["pinned:<n>"] *)
  s_epoch : epoch;
  s_eval : Drift.epoch_eval;
  s_verdict : Drift.verdict;
  s_action : action;
  s_cycles : int;  (** application cycles of this epoch *)
  s_retune_cycles : int;
      (** simulator cycles spent on this segment's supervised guard
          runs (baseline, candidates, A&J) — the retune overhead *)
}

type report = {
  a_name : string;
  a_segments : segment_result list;
  a_retunes : int;  (** executed retunes (any rung) *)
  a_suppressed_dwell : int;
  a_suppressed_breaker : int;
  a_ladder : (string * int) list;  (** rung label -> count, top first *)
  a_app_cycles : int;
  a_retune_cycles : int;
  a_final_plan : string;
  a_log : string list;
      (** one deterministic line per segment (no wall-clock content):
          the artifact the CI drift-smoke job diffs across job counts *)
}

val prime : ?config:config -> Aptget_workloads.Workload.t -> Aptget_profile.Profiler.t
(** One-shot profile of the fused workload: the aging profile the loop
    starts from ({!run} derives its first plan and its drift reference
    from it). *)

val run :
  ?config:config ->
  ?memo:Aptget_core.Meas_cache.t ->
  ?quarantine:Aptget_core.Quarantine.t ->
  profile:Aptget_profile.Profiler.t ->
  name:string ->
  Aptget_workloads.Workload.t list ->
  report
(** Drive one epoch per segment, in order, starting from [profile]'s
    hints and evidence reference. [quarantine] persists guard verdicts
    across retunes. An epoch whose plan vetoes nothing is the run of
    its validated hints, so it enters [memo] as that run. A segment
    that fails semantic verification raises [Failure]. *)

val replicate : int -> Aptget_workloads.Workload.t -> Aptget_workloads.Workload.t list
(** [n] copies named ["<name>@<i>"] — segments for workloads without
    natural phases. *)

val render : report -> string
(** Human-readable summary: header, ladder counts, then {!a_log}. *)
