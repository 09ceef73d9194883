(** Execute one admitted request inside its tenant's namespace.

    This is the serve daemon's unit of work: resolve the workload
    (optionally substituting client-shipped program IR), obtain a
    hints document (the request's stale hints, or a fresh profiling
    run, which is then also the guard's baseline), and run the guarded
    pipeline under the request's deadline — with the tenant's
    quarantine store, measurement-cache scope and circuit breaker
    plugged in.

    The result is a total {!outcome}: pipeline failures, blown
    deadlines and bad inputs all come back as structured statuses.
    The only exception allowed to escape is
    {!Aptget_store.Crash.Crashed} from an armed crash plan — a dead
    process cannot respond.

    Success bodies carry {e no} wall-clock content, so the same request
    yields byte-identical bytes from the daemon at any [--jobs] and
    from the one-shot [aptget serve --once] path. *)

type outcome = {
  h_status : Wire.status;
      (** [Ok_], [Timed_out], [Rejected] or [Failed] (admission-level
          statuses are decided by the server, not here) *)
  h_reason : string;
  h_body : string;
}

(** Every request runs on {!Aptget_machine.Machine.default_config}
    under {!Aptget_core.Watchdog.default}'s per-stage budgets, whose
    cycle budgets the request's [deadline_cycles] tightens, and is
    guarded at the request's [guard_floor], else at
    {!Aptget_core.Pipeline.default_floor}. *)
type config = {
  resolve : string -> Aptget_workloads.Workload.t option;
      (** workload lookup, {!Aptget_workloads.Suite.find} by default
          (tests inject synthetic workloads here). The program
          fingerprint of a resolved workload is taken from one build
          and reused for as long as [resolve] returns the same record
          ([==]) for its name: a warm request builds nothing to
          fingerprint it. *)
}

val default_config : config

val run :
  ?crash:Aptget_store.Crash.t -> config -> tenant:Tenant.t -> Wire.request -> outcome
(** Acquires the tenant breaker first: an open breaker refuses with
    [Rejected] (and [serve.breaker.refused]) without running anything.
    Every executed request records its outcome with the breaker, so a
    tenant whose requests keep failing trips only its own breaker
    ([serve.breaker.opened]). *)
