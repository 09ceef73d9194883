(** The end-to-end APT-GET pipeline (the paper's headline flow):

    {v
    build workload -> profiling run (LBR + PEBS) -> baseline + hints
    build workload -> inject (APT-GET pass)      -> optimized run
    build workload -> inject (A&J static pass)   -> baseline competitor
    v}

    Sampling never perturbs the simulation, so the profiling run is
    also the baseline of record: {!profiled} returns both.

    Every measured run goes through one stage, {!measure}:

    {v
    build -> transform -> Verify.check -> execute (watchdog) -> semantic verify
    v}

    Its executor is {!Solo} ({!Aptget_machine.Machine.execute}) or
    {!Corun} ({!Aptget_machine.Corun.run} against a freshly built
    co-runner on the shared LLC/DRAM). The three entry points below —
    plain ({!profiled}, {!with_hints}, {!aj}), robust ({!run_robust})
    and guarded ({!run_guarded}) — the online loop's epochs
    ({!Aptget_adapt.Adapt}), the experiments and the CLI are
    compositions of that stage. Every run gets a freshly built workload
    instance, so measured runs never see a previous run's memory side
    effects, and every run's semantic verifier is checked: a prefetch
    pass that breaks the program is reported, not silently timed. *)

type measurement = Meas_cache.measurement = {
  workload : string;
  outcome : Aptget_machine.Machine.outcome;
  verified : (unit, string) result;
  injected : Aptget_passes.Inject.injected list;
  skipped : (int * string) list;
  wall_seconds : float;
      (** build plus simulate time of this one run, in wall-clock
          seconds on the monotonic {!Aptget_util.Clock}: {!measure}
          from building the instance (and the co-runner's, under
          {!Corun}) through the transform, IR check and simulation. For
          {!profiled}'s measurement that is the sampled profiling run;
          the profile analysis after it and every other run are never
          included. *)
}

val verified_exn : measurement -> measurement
(** Raise [Failure] if the run's semantic verification failed. *)

val speedup : baseline:measurement -> measurement -> float
(** Cycle-count ratio (>1 = faster than baseline). *)

val instruction_overhead : baseline:measurement -> measurement -> float
(** Dynamic instruction ratio (Fig. 11). *)

val mpki_reduction : baseline:measurement -> measurement -> float
(** 1 - mpki/mpki_baseline (Fig. 7, higher is better). *)

val render_measurement : string -> measurement -> string
(** One outcome line: [label], cycles, instructions, IPC, MPKI, memory
    stall share, prefetches and the verification result, newline
    terminated. Wall time is deliberately absent, it is the one
    nondeterministic field; [aptget run] and the serve daemon's
    responses print through this. *)

(** {2 The measure stage} *)

exception Invalid_ir of string
(** Raised by {!measure} when the transformed IR fails
    {!Aptget_ir.Verify.check}; carries the rendered report. *)

type executor =
  | Solo  (** the tenant alone on the machine *)
  | Corun of { corunner : Aptget_workloads.Workload.t; policy : Aptget_machine.Corun.policy }
      (** the tenant as stream 0 and a fresh build of [corunner] as
          stream 1, interleaved by [policy] over one shared LLC/DRAM *)

type run = {
  tenant : measurement;
      (** under {!Corun}, unverified also when the co-runner's own
          check failed; the error then names the co-runner *)
  corunner : measurement option;  (** [Some] exactly under {!Corun} *)
  instance : Aptget_workloads.Workload.instance;
      (** the tenant instance as executed: transformed IR, post-run
          memory *)
}

val measure :
  ?config:Aptget_machine.Machine.config ->
  ?executor:executor ->
  ?watchdog:Watchdog.config ->
  ?crash:Aptget_store.Crash.t ->
  ?sampler:Aptget_pmu.Sampler.t ->
  ?window_cycles:int ->
  ?on_window:(Aptget_machine.Machine.window_report -> unit) ->
  ?transform:
    (Aptget_workloads.Workload.instance ->
    Aptget_passes.Inject.injected list * (int * string) list) ->
  Aptget_workloads.Workload.t ->
  run
(** Build a fresh instance of the workload, apply [transform] (default:
    none; it returns the measurement's [injected] and [skipped]), check
    the IR (raising {!Invalid_ir}), execute under [executor] (default
    {!Solo}) supervised by {!Watchdog.run} in its [Measure] stage, and
    run the semantic verifier. [sampler], [window_cycles] and
    [on_window] ride along the tenant exactly as in
    {!Aptget_machine.Machine.execute}. Exceptions from the transform,
    the watchdog ({!Watchdog.Timed_out}, {!Aptget_store.Crash.Crashed})
    and the machine propagate. *)

val apply_hints :
  ?cse:bool ->
  ?veto:(Aptget_passes.Aptget_pass.hint -> string option) ->
  hints:Aptget_passes.Aptget_pass.hint list ->
  Aptget_workloads.Workload.instance ->
  Aptget_passes.Inject.injected list * (int * string) list
(** The APT-GET pass as a {!measure} transform. [cse] (default false)
    runs the local CSE cleanup after injection; [veto] is forwarded to
    {!Aptget_passes.Aptget_pass.run}. *)

val refit :
  ?options:Aptget_profile.Profiler.options ->
  sampler:Aptget_pmu.Sampler.t ->
  run ->
  Aptget_profile.Profiler.t option
(** Incremental Eq. 1 re-fit from [sampler], which rode along [run],
    over the kernel [run] executed. [None] when the analysis fails;
    {!Aptget_store.Crash.Crashed} propagates. *)

(** {2 Plain entry points} *)

val measured :
  ?memo:Meas_cache.t ->
  ?program:Meas_cache.program ->
  ?config:Aptget_machine.Machine.config ->
  ?watchdog:Watchdog.config ->
  ?crash:Aptget_store.Crash.t ->
  Meas_cache.transform ->
  Aptget_workloads.Workload.t ->
  measurement
(** {!measure}'s tenant under [transform]. With [memo], a run already
    there answers when it fits the caps {!Watchdog.cap} puts on this
    one, an armed crash cycle included. A transform that misses is
    applied, then looked up again under {!Meas_cache.rewritten}, so
    transforms that inject the same program are simulated once; the
    answer carries this transform's own [injected] and [skipped]. [program] defaults to
    {!Meas_cache.program}[ w]; a shipped program passes its own. *)

val baseline : Aptget_workloads.Workload.t -> measurement
(** [measured Unmodified]. *)

val aj : ?distance:int -> Aptget_workloads.Workload.t -> measurement
(** [measured (Aj distance)], by default at
    {!Aptget_passes.Aj.default_distance}. *)

val profiled_run :
  ?memo:Meas_cache.t ->
  ?program:Meas_cache.program ->
  ?options:Aptget_profile.Profiler.options ->
  ?watchdog:Watchdog.config ->
  ?crash:Aptget_store.Crash.t ->
  Aptget_workloads.Workload.t ->
  run * Aptget_pmu.Sampler.t * Aptget_profile.Profiler.t
(** The profiling run: {!measure} of the unmodified kernel on
    [options.machine] with {!Aptget_profile.Profiler.sampler}[ options]
    riding along, charged to the watchdog's [Profile] budget, then
    {!Aptget_profile.Profiler.refit}. Sampling never perturbs the run,
    so its measurement is the baseline under [options.machine], and it
    enters [memo] as the {!Meas_cache.Unmodified} run. A study of analysis-only
    options ([finder], [k], [max_overhead_frac]) re-fits the sampler
    instead of simulating again. Exceptions propagate as from
    {!measure}. *)

val profiled :
  ?memo:Meas_cache.t ->
  ?program:Meas_cache.program ->
  ?options:Aptget_profile.Profiler.options ->
  ?watchdog:Watchdog.config ->
  ?crash:Aptget_store.Crash.t ->
  Aptget_workloads.Workload.t ->
  measurement * Aptget_profile.Profiler.t
(** {!profiled_run}'s measurement and profile. *)

val profile :
  ?options:Aptget_profile.Profiler.options ->
  Aptget_workloads.Workload.t ->
  Aptget_profile.Profiler.t
(** [snd] of {!profiled}. *)

val with_hints :
  ?config:Aptget_machine.Machine.config ->
  ?cse:bool ->
  hints:Aptget_passes.Aptget_pass.hint list ->
  Aptget_workloads.Workload.t ->
  measurement
(** [measured (Hints {hints; cse})]: with a fresh {!profiled}'s hints,
    the full APT-GET pipeline; with externally supplied ones, the
    distance/site studies and cross-input evaluation (Fig. 8–10, 12).
    [cse] (default false) runs the local CSE cleanup after injection,
    as LLVM's scalar optimisations would. *)

(** {2 Robust pipeline}

    The plain entry points above raise on malformed input (bad IR after
    injection, a runaway kernel, a profiling failure). {!run_robust}
    instead degrades: every failure is converted into a structured
    {!degradation} (which stage, what went wrong, which fallback was
    taken) and the pipeline continues with the best remaining plan —
    ultimately the unmodified kernel. Used by the robustness ablation
    to ask how much profile corruption APT-GET absorbs before its
    speedups evaporate. *)

type degradation = {
  stage : string;
      (** "profile" | "hints" | "inject" | "verify-ir" | "run" |
          "semantic-verify" | "build" | "pipeline" *)
  cause : string;
  fallback : string;  (** the action taken instead *)
}

val degradation_to_string : degradation -> string

type robust = {
  r_workload : string;
  r_measurement : measurement option;
      (** [None] only when even the unmodified kernel failed to run *)
  r_baseline : measurement option;
      (** the (first) profiling run's measurement, the baseline of
          record; [None] when [hints] were supplied or profiling raised *)
  r_profile : Aptget_profile.Profiler.t option;
  r_hints_used : Aptget_passes.Aptget_pass.hint list;
  r_hints_dropped : (Aptget_passes.Aptget_pass.hint * string) list;
      (** stale hints rejected by validation, with reasons *)
  r_degradations : degradation list;  (** in stage order *)
  r_profile_retried : bool;
      (** the profile was re-collected once with denser LBR sampling *)
}

val run_robust :
  ?faults:Aptget_pmu.Faults.config ->
  ?hints:Aptget_passes.Aptget_pass.hint list ->
  ?watchdog:Watchdog.config ->
  ?crash:Aptget_store.Crash.t ->
  Aptget_workloads.Workload.t ->
  robust
(** Full pipeline that never raises — with one deliberate exception:
    an armed [crash] plan that fires raises
    {!Aptget_store.Crash.Crashed} through every handler, modelling the
    process dying mid-run (a dead process cannot degrade). Profiling
    uses {!Aptget_profile.Profiler.default_options}; every run is on
    the default machine. [faults]
    (default {!Aptget_pmu.Faults.none}) injects PMU faults into the
    profiling run; with the default config the measured outcome is
    bit-identical to {!profiled} composed with {!with_hints}, and
    [r_baseline] is {!profiled}'s measurement. Supplying [hints] skips profiling and
    exercises the stale-hint validation path (e.g. hints loaded
    leniently from a checked-in file). When profiling collects too few
    iteration samples, it is retried once with a 4x denser LBR period.
    [watchdog] (default {!Watchdog.default}) deadlines each stage:
    profile and measure in simulated cycles, inject in kernel steps
    (hints processed); an expiry degrades that stage with the
    structured {!Watchdog.timeout_to_string} cause. *)

(** {2 Guarded pipeline}

    Stale-profile resilience: a hints document (possibly from an old
    profile of a since-changed program) is optionally remapped by
    structural fingerprint ({!Aptget_profile.Remap}), then measured
    against the freshly measured baseline, and {e admitted} only when
    its speedup clears a floor. A hint set that regresses is
    quarantined — persistently, when a {!Quarantine} store is supplied
    — and the run falls back to the static Ainsworth & Jones pass (if
    that clears the floor) or to the unmodified baseline. Subsequent
    runs recognise the quarantined set and skip its candidate
    simulation entirely. *)

val default_floor : float
(** Minimum admissible speedup over baseline: 0.98, up to 2%
    regression tolerated as measurement slack. *)

type fallback =
  | Aj_static  (** the static Ainsworth & Jones pass cleared the floor *)
  | Pinned_baseline  (** the unmodified kernel, every hint vetoed *)

type guard_outcome =
  | Admitted  (** candidate met the floor; its measurement is final *)
  | Quarantined of { speedup : float; fallback : fallback }
      (** candidate measured below the floor this run; recorded (when a
          store was supplied) and replaced by [fallback] *)
  | Known_bad of { prior_speedup : float; fallback : fallback }
      (** the store already held this (workload, program, hints) key —
          no candidate simulation was spent *)

val guard_outcome_to_string : guard_outcome -> string

val render_guard : floor:float -> guard_outcome -> string
(** The [guard:] line that [aptget run] and serve responses print. *)

type guarded = {
  g_workload : string;
  g_program : int;
      (** structural program hash the quarantine entries are keyed by *)
  g_baseline : measurement;
  g_candidate : measurement option;
      (** the measured candidate; [None] when skipped as known-bad *)
  g_final : measurement;  (** the measurement the guard stands behind *)
  g_speedup : float;  (** [g_final] vs [g_baseline]; never below the
          floor except by simulator nondeterminism (there is none) *)
  g_outcome : guard_outcome;
  g_hints : Aptget_passes.Aptget_pass.hint list;
      (** the candidate hint set, post-remap *)
  g_remap : Aptget_profile.Remap.t option;
      (** remap decisions when remapping was requested *)
}

val run_guarded :
  ?memo:Meas_cache.t ->
  ?config:Aptget_machine.Machine.config ->
  ?floor:float ->
  ?quarantine:Quarantine.t ->
  ?remap:bool ->
  ?watchdog:Watchdog.config ->
  ?crash:Aptget_store.Crash.t ->
  ?program:Meas_cache.program ->
  doc:Aptget_profile.Hints_file.doc ->
  Aptget_workloads.Workload.t ->
  guarded
(** Guarded run of [doc]'s hints on [w]. [remap] (default false)
    re-keys them first ({!Aptget_profile.Remap.run}); without it they
    apply as-is, still guarded. [floor] defaults to {!default_floor}.
    [quarantine] both consults and records; omitting it makes every
    verdict run-local. Every simulator run is supervised by
    [watchdog]: a candidate that blows its measure budget is
    quarantined at 0.0x speedup (so later runs skip it), while a
    baseline or final fallback that does so raises
    {!Watchdog.Timed_out} — there is nothing left to stand behind. An
    armed [crash] plan raises {!Aptget_store.Crash.Crashed} when it
    fires.

    The baseline, A&J and candidate runs are {!measured} with [memo]
    (the caller's profiling and A&J runs answer there), so a budget that
    fires still does. The pinned baseline fallback is not simulated: an
    all-vetoed injection leaves the IR untouched, so it is the
    baseline's measurement ([wall_seconds] included) with the veto's
    skip records. [program]'s fingerprint is what the remapper, the
    quarantine key and [g_program] see. *)

val force_distance :
  int -> Aptget_passes.Aptget_pass.hint list -> Aptget_passes.Aptget_pass.hint list
(** Override every hint's distance (static-distance competitors,
    Fig. 9). *)

val force_site :
  Aptget_passes.Inject.site ->
  Aptget_passes.Aptget_pass.hint list ->
  Aptget_passes.Aptget_pass.hint list
(** Override every hint's injection site (Fig. 10); forcing [Inner]
    also resets the sweep to 1. *)
