(** Fixed-size domain worker pool for embarrassingly parallel batches.

    Simulation runs in this repo are fully independent (each builds its
    own memory image, cache hierarchy and sampler), so the drivers fan
    a batch of thunks out across OCaml 5 domains and join. Results are
    keyed by submission index — never by completion order — so a
    parallel batch returns exactly what the serial loop would, in the
    same order, regardless of scheduling.

    Degradation to serial is automatic and exact: with one worker
    (explicitly via [jobs:1]/[APTGET_JOBS=1], or because
    [Domain.recommended_domain_count () = 1]) the batch runs in the
    calling domain with no queue, no locks and no domains spawned. *)

type t

val create : ?jobs:int -> unit -> t
(** A pool of [jobs - 1] worker domains plus the calling domain (the
    caller participates in draining the queue, so [jobs] bounds total
    concurrency). [jobs] defaults to {!default_jobs}; values are
    clamped to [[1, 64]]. With [jobs = 1] no domain is spawned. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join the worker domains. Idempotent. Outstanding batches must have
    completed; submitting to a shut-down pool raises
    [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs], computed concurrently. Results
    are ordered by submission index. If any [f x] raises, the whole
    batch is drained and the exception of the {e lowest-indexed}
    failing item is re-raised (so error reporting is deterministic
    too). Not reentrant: [f] must not submit to the same pool. *)

val mapi : t -> (int -> 'a -> 'b) -> 'a list -> 'b list

val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot [with_pool] + [map]: the common driver entry point. *)

val default_jobs : unit -> int
(** Worker count used when none is given explicitly: the [--jobs]
    override if one was set, else the [APTGET_JOBS] environment
    variable, else [Domain.recommended_domain_count ()]. Malformed or
    non-positive values fall back to 1. *)

val set_default_jobs : int option -> unit
(** Process-wide override installed by the [--jobs] CLI flags;
    [None] restores env/hardware detection. *)

type monitor = {
  on_task : wait_s:float -> run_s:float -> helper:bool -> unit;
      (** Called once per {e queued} task when it finishes: queue wait
          (submit to start), run time, and whether the calling domain
          (rather than a worker) drained it. *)
  on_batch : queued:int -> jobs:int -> unit;
      (** Called once per queued batch, right after its tasks land on
          the queue: the batch size (= instantaneous queue depth, since
          batches drain fully before the next submits) and the pool
          width. The obs layer turns this into the [pool.queue_depth]
          gauge the serve dashboard reads. *)
}

val set_monitor : monitor option -> unit
(** Process-wide observation hook, [None] by default (the queued path
    then takes no timestamps at all). Serial batches — [jobs = 1] or
    at most one item — bypass the queue and are not reported. The obs
    layer installs this; it lives here only because this library sits
    below it in the dependency graph. *)

(** {1 Helper domains}

    A simulation may split one run over two domains
    ({!Aptget_machine.Machine.execute}). Every domain that simulates
    counts against one budget: the [APTGET_JOBS] environment variable,
    else [Domain.recommended_domain_count ()]. Pool tasks running now
    count (a domain outside any batch counts as one), and so do helpers.
    The [--jobs] override ({!set_default_jobs}) only sets how wide a
    pool fans out, so a serial pool on a two-core host still leaves one
    slot for a helper, and [APTGET_JOBS=1] leaves none. *)

val spawn_helper : (unit -> unit) -> (unit -> unit) option
(** [spawn_helper job] runs [job] on a new domain if the budget has a
    spare slot, and returns the function that joins it and frees the
    slot (call it exactly once); [None] when there is no slot. [job]
    must not raise. *)

val running_helpers : unit -> int
(** Helper domains spawned and not yet joined. *)

val helpers_started : unit -> int
(** Helper domains spawned so far in this process. *)
