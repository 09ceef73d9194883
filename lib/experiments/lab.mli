(** Measurement memo shared by all experiments.

    Several figures reuse the same runs (baseline, A&J, APT-GET,
    distance sweeps). The lab keys each by what runs
    ({!Aptget_core.Meas_cache}), so a full benchmark invocation
    executes every distinct simulation once: a static distance equal to
    the solved one is the APT-GET run. *)

type t

val create : ?quick:bool -> ?cache_dir:string -> unit -> t
(** [quick] shrinks the suite and the microbenchmark so the whole
    harness finishes in well under a minute (used by tests and
    [--quick]). [cache_dir] enables the persistent measurement cache
    ({!Aptget_core.Meas_cache}); when omitted, the [APTGET_CACHE]
    environment variable is consulted, and when that is unset too the
    lab memoizes in memory only. *)

val quick : t -> bool

val memo : t -> Aptget_core.Meas_cache.t
(** For an experiment that measures through {!Aptget_core.Pipeline}
    directly (a guarded run, the online loop). *)

val suite : t -> Aptget_workloads.Workload.t list
(** The evaluation suite (possibly reduced in quick mode). *)

val nested_suite : t -> Aptget_workloads.Workload.t list

val micro_params : t -> Aptget_workloads.Micro.params
(** Microbenchmark sizing for §2 experiments. *)

val baseline : t -> Aptget_workloads.Workload.t -> Aptget_core.Pipeline.measurement
(** The workload's profiling run ({!Aptget_core.Pipeline.profiled}):
    the unhinted kernel is simulated once for both {!baseline} and
    {!profiled}. *)

val aj : t -> ?distance:int -> Aptget_workloads.Workload.t -> Aptget_core.Pipeline.measurement
val aptget : t -> Aptget_workloads.Workload.t -> Aptget_core.Pipeline.measurement
val profiled : t -> Aptget_workloads.Workload.t -> Aptget_profile.Profiler.t

val sampled :
  t ->
  Aptget_workloads.Workload.t ->
  Aptget_core.Pipeline.measurement * Ir.func * Aptget_pmu.Sampler.t
(** The profiling run behind {!baseline} and {!profiled}: its
    measurement (checked), the kernel it ran and its sampler, for a
    study that reads the LBR snapshots or re-fits the run. *)

val with_hints :
  t ->
  ?config:Aptget_machine.Machine.config ->
  ?cse:bool ->
  hints:Aptget_passes.Aptget_pass.hint list ->
  Aptget_workloads.Workload.t ->
  Aptget_core.Pipeline.measurement
(** {!Aptget_core.Pipeline.with_hints}, memoized and checked. *)

val static_distance : t -> distance:int -> Aptget_workloads.Workload.t -> Aptget_core.Pipeline.measurement
(** Profiled injection sites with a forced static distance (Fig. 8–9). *)

val forced_site :
  t -> Aptget_passes.Inject.site -> Aptget_workloads.Workload.t ->
  Aptget_core.Pipeline.measurement
(** Profiled hints with a forced injection site (Fig. 10). *)

val record :
  t -> workload:string -> variant:string -> Aptget_core.Pipeline.measurement -> unit
(** Report an externally computed measurement as [workload]'s
    ["baseline"] or ["aptget"] run in {!summary} (first report wins; it
    never enters the memo). The adaptive experiment sums its one-shot
    and online arms into synthetic records so {!summary} carries the
    online-vs-one-shot speedup into the BENCH output. *)

val summary : t -> (string * float * float) list
(** [(workload, speedup, mpki_reduction)] for every workload whose
    {!baseline} and {!aptget} were both asked for (or {!record}ed),
    sorted by name. Never triggers a simulation — the bench harness
    calls this after each experiment to emit machine-readable
    results. *)

val check : Aptget_core.Pipeline.measurement -> Aptget_core.Pipeline.measurement
(** Assert semantic verification passed (all experiments run through
    this, so a miscompiling pass aborts the harness loudly). *)

(** {2 Batched, parallel prewarming}

    A [job] names one memoized measurement; [run_batch] computes the
    ones not yet memoized (or loadable from the persistent cache) in
    parallel across domains and stores them in the memo. The
    experiments prewarm their full job list at entry and then render
    tables serially through the memoized getters, so parallel and
    serial runs produce byte-identical output. *)

type job =
  | Baseline of Aptget_workloads.Workload.t
  | Aj of { distance : int option; w : Aptget_workloads.Workload.t }
  | Aptget of Aptget_workloads.Workload.t
  | Static of { distance : int; w : Aptget_workloads.Workload.t }
  | Site of { site : Aptget_passes.Inject.site; w : Aptget_workloads.Workload.t }

val run_batch : ?jobs:int -> t -> job list -> unit
(** Measure every not-yet-memoized job, fanning across [jobs] domains
    (default {!Aptget_util.Pool.default_jobs}). The profiling runs that
    baseline and profile-guided jobs need are computed first (once per
    workload); then jobs are deduplicated by key, so two jobs that
    solve to the same run (a static distance equal to the solved one)
    simulate it once. The first failing job's exception propagates in
    deterministic (submission) order. *)
