(** Supervised profiling campaigns: checkpoint/resume, retries with
    capped backoff, and per-workload circuit breakers.

    A campaign grinds a trial plan (workloads x repetitions) through
    the robust pipeline under the {!Watchdog}'s per-stage deadlines,
    journaling one checkpoint record per executed trial into a
    crash-safe {!Aptget_store.Journal}. Killing the process at any
    point — which the deterministic {!Aptget_store.Crash} plans do on
    purpose — loses at most the in-flight trial: re-running the same
    campaign against the same store resumes from the salvaged journal
    and re-executes only what has no [ok] checkpoint.

    Failure containment is layered the way a long unattended run needs
    it to be:
    - a {e trial} failure (timeout, verification failure, degraded-out
      pipeline) is retried up to [max_retries] times with a capped
      exponential backoff factor (recorded, not slept — the simulator
      has no wall clock);
    - a {e workload} that fails [breaker_threshold] consecutive trials
      trips its circuit breaker: the next [breaker_cooldown] trials of
      that workload are skipped outright, then a single half-open probe
      decides between re-closing and re-opening;
    - a simulated {e process} death ({!Aptget_store.Crash.Crashed})
      propagates out of {!run} — recovery belongs to the next run, not
      the dying one. *)

type trial = { t_id : string; t_workload : Aptget_workloads.Workload.t }

val plan :
  ?trials_per_workload:int -> Aptget_workloads.Workload.t list -> trial list
(** The cross product, in workload order: trial ids are
    ["<workload>#<n>"] with [n] in [1, trials_per_workload] (default
    1). Ids are the checkpoint keys, so the same plan resumes exactly.
    @raise Invalid_argument when [trials_per_workload < 1]. *)

type config = {
  max_retries : int;  (** extra attempts per trial (default 2) *)
  backoff_base : float;
      (** attempt [n] accrues backoff [base^(n-1)], capped at
          {!Aptget_pmu.Faults.max_backoff} (default 2.0) *)
  breaker_threshold : int;
      (** consecutive trial failures that open a workload's breaker
          (default 3) *)
  breaker_cooldown : int;
      (** trials of that workload skipped while open (default 2) *)
  watchdog : Watchdog.config;  (** per-stage deadlines for every trial *)
  faults : Aptget_pmu.Faults.config;
      (** PMU fault injection forwarded to every profiling run *)
}

val default_config : config

type status =
  | Completed of { speedup : float }
      (** verified measurement; speedup vs the memoized baseline *)
  | Resumed of { speedup : float option }
      (** an [ok] checkpoint existed — no work spent this run *)
  | Failed of string  (** all attempts exhausted; cause of the last *)
  | Skipped of string  (** circuit breaker was open *)

type trial_result = {
  tr_id : string;
  tr_workload : string;
  tr_status : status;
  tr_attempts : int;  (** 0 for resumed/skipped trials *)
  tr_backoff : float;
      (** total capped backoff factor accrued across retries *)
}

val status_to_string : status -> string

type report = {
  c_results : trial_result list;  (** in plan order *)
  c_completed : int;
  c_resumed : int;
  c_retried : int;  (** completed trials that needed more than one attempt *)
  c_failed : int;
  c_skipped : int;
  c_breakers_opened : (string * int) list;
      (** workloads whose breaker opened, with open counts *)
  c_breaker_final : (string * string) list;
      (** final breaker state per workload touched, sorted *)
  c_store_recovery : Aptget_store.Journal.recovery;
      (** what the checkpoint journal salvage found at open *)
}

val ok : report -> bool
(** No failures, no breaker-skipped trials, no breaker ever opened —
    the campaign's exit-0 criterion ([aptget campaign] exits 3
    otherwise). *)

val run :
  ?config:config ->
  ?crash:Aptget_store.Crash.t ->
  store:string ->
  trial list ->
  report
(** Execute (or resume) a campaign against the checkpoint journal at
    [store]. The journal is opened with crash recovery first; the
    returned report's [c_store_recovery] says what survived. [crash]
    arms a deterministic kill point threaded through both the store
    writes and the supervised simulations; when it fires,
    {!Aptget_store.Crash.Crashed} escapes this function by design.

    Independent workloads fan out across {!Aptget_util.Pool.default_jobs}
    domains: trials are grouped by workload name —
    breaker and baseline state are per-workload, so groups share
    nothing — and journal appends are serialized through one writer.
    The report is identical to a serial run's (results in plan order,
    breaker accounting per group). An armed [crash] plan forces serial
    execution, since its deterministic kill point counts store writes
    in order.

    Every trial runs {!Pipeline.run_robust} on the default machine and
    its speedup is taken against the workload's memoized unmodified
    run. *)
