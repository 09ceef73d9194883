(** Profiling samplers driven by the simulated core.

    Two samplers, matching the paper's two-step profile (§3.4):
    - the {b PEBS} sampler records the PC of every Nth demand load that
      misses the LLC, yielding the delinquent-load ranking;
    - the {b LBR} sampler snapshots the LBR ring at a fixed cycle
      period ("once per millisecond" on real hardware).

    An optional {!Faults} model degrades the collected profile the way
    real PMU hardware and the perf subsystem do: snapshot loss, cycle
    stamp jitter, ring truncation, PEBS skid and adaptive throttling.
    Without a fault model (or with {!Faults.none}) behaviour is
    bit-identical to the clean sampler.

    Kept LBR snapshots go to one growable log per sampler, a buffer of
    ints the GC never scans: each snapshot is a header ([at_cycle],
    entry count) followed by one (branch PC, target PC, cycle) triple
    per entry, oldest first. Taking a snapshot copies the ring into the
    log and allocates nothing unless the log grows (it doubles), and
    readers walk the log in place through {!fold_snapshots} and the
    accessors below it. A profile that is kept (the experiment lab
    holds a sampler per workload) is thus one unscanned block, not a
    record, an array and 32 entry records per snapshot that every
    major collection would mark again. *)

type t

val create :
  ?lbr_period:int ->
  ?pebs_period:int ->
  ?lbr_size:int ->
  ?faults:Faults.t ->
  unit ->
  t
(** [lbr_period] is in cycles (default 20_000 — the scaled equivalent of
    1 ms at the scaled simulation sizes); [pebs_period] samples every
    Nth LLC-missing load (default 64). [faults], when given, injects
    PMU faults at every decision point. *)

val lbr : t -> Lbr.t
(** The live ring the core records taken branches into. *)

val reset : ?epoch_cycle:int -> t -> unit
(** Re-arm the sampler for a fresh observation epoch (used by online
    re-profiling, which samples each execution segment separately):
    clears collected LBR snapshots, the delinquent-load table and the
    miss/PEBS tallies, and restarts the LBR period clock at
    [epoch_cycle] (default 0) plus one period. The fault model — with
    its accumulated throttle backoff and seed position — is kept, so a
    sequence of epochs observes the same fault stream one long run
    would. *)

val on_branch : t -> branch_pc:int -> target_pc:int -> cycle:int -> unit
(** Called by the core on every taken branch; records into the LBR
    ring, applying cycle-stamp jitter when a fault model is active.
    Cores should use this rather than writing the ring directly. *)

val on_cycle : t -> cycle:int -> unit
(** Called by the core as time advances; takes an LBR snapshot whenever
    a period boundary is crossed (one snapshot at [cycle], however many
    boundaries the last charge crossed). Under faults a due snapshot
    asks, in this order, {!Faults.throttle_admit}, then
    {!Faults.drop_lbr}, then {!Faults.truncate_ring}, each only if the
    one before kept it, and the log keeps the newest entries that
    survive. It does nothing while
    [cycle < next_due t], so a core need only call it once the clock
    reaches {!next_due}. *)

val next_due : t -> int
(** The cycle of the next LBR snapshot: a lower bound below which
    {!on_cycle} takes none. It only moves forward (past the cycle of
    each snapshot) until the next {!reset}, so a core may read it at
    the start of a run and again after each {!on_cycle}. *)

val on_llc_miss : t -> load_pc:int -> cycle:int -> unit
(** Called by the core on every demand LLC miss; subsamples into the
    delinquent-load table. Under faults the sample may be throttled or
    its PC skidded to a neighbouring slot. *)

(** {2 The snapshot log} *)

type snapshot = private int
(** A cursor on one snapshot in a sampler's log. It reads that
    sampler only, and only until its next {!reset}. *)

val snapshot_count : t -> int
(** Snapshots in the log. *)

val fold_snapshots : t -> init:'a -> ('a -> snapshot -> 'a) -> 'a
(** Fold over the snapshots in the order they were taken, which is
    strictly increasing [at_cycle] within one epoch. *)

val at_cycle : t -> snapshot -> int
(** The cycle the snapshot was taken at. *)

val entry_count : t -> snapshot -> int
(** Entries in the snapshot: the ring's fill, or fewer after a
    truncation fault. *)

val branch_pc : t -> snapshot -> int -> int
val target_pc : t -> snapshot -> int -> int

val cycle : t -> snapshot -> int -> int
(** [branch_pc t s i], [target_pc t s i] and [cycle t s i] read entry
    [i] of snapshot [s], oldest first; [cycle] is the (possibly
    jittered) stamp recorded with the branch.
    @raise Invalid_argument unless [0 <= i < entry_count t s]. *)

val delinquent_loads : t -> (int * int) list
(** [(load_pc, samples)] sorted by descending sample count: the loads
    responsible for most LLC misses. *)

val miss_samples : t -> int
(** Total PEBS samples taken. *)

val current_lbr_period : t -> int
(** The effective LBR period: the configured one stretched by any
    adaptive-throttling backoff. *)

val fault_stats : t -> Faults.stats option
(** Fault counters, when a fault model is attached. *)

val export_metrics : t -> unit
(** Push this sampler's tallies (snapshot/sample/miss counts and, when
    a fault model is attached, the {!Faults.stats} counters) into the
    {!Aptget_obs.Metrics} registry. No-op while the registry is
    disabled. *)
