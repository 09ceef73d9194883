(** Timing simulator for IR functions (in-order issue; blocking or stall-on-use completion).

    Two engines execute the same cost model over the same
    {!Compile.t} execution plan and are byte-identical in every
    observable (cycles, counters, sampler events, exception payloads
    and raise points):

    - {!Compiled} (the default): a one-time pass lowers each basic
      block twice. A functional closure updates registers and memory,
      picks the successor and appends the block's load and prefetch
      addresses, [Work] amounts and successor to an int ring; a timing
      loop replays those records with the charges, hierarchy calls,
      sampler hooks, windows and deadline (event-horizon accounting,
      see {!Exec.horizon}). The functional half runs ahead on a helper
      domain when the domain budget has a spare slot
      ({!Aptget_util.Pool.spawn_helper}; [APTGET_JOBS=1] leaves none),
      else on the calling domain in batches. Placement never changes
      an outcome.
    - {!Interp}: the original match-dispatch interpreter, kept as the
      differential oracle ([--engine interp] in the CLI and bench; the
      [test_engine] suite cross-checks the two on random programs).

    The engine is picked per call ([?engine]), falling back to the
    process default ({!set_default_engine}, or the [APTGET_ENGINE]
    environment variable: [compiled] | [interp]).

    Executes a kernel over a {!Aptget_mem.Memory}, charging cycles
    against a {!Aptget_cache.Hierarchy} and feeding the simulated PMU
    through {!Aptget_pmu.Sampler}'s hooks: every executed terminator is
    reported via [on_branch] as a taken branch (with its layout PC,
    target PC and cycle stamp), and demand loads served by DRAM are
    reported via [on_llc_miss] into the PEBS delinquent-load table. The
    core never touches the LBR ring or the PEBS table directly, so a
    fault model attached to the sampler ({!Aptget_pmu.Faults}) sees
    every profiling event.

    Two core models are available:

    - {!Blocking} (default): a demand load stalls the core until its
      data arrives. Simple and deterministic; memory-level parallelism
      exists only through prefetching — this is the model used for the
      paper-reproduction numbers.
    - {!Stall_on_use}: loads complete in the background and the core
      only stalls when a not-yet-ready register is *used* (or at a
      branch), bounded by a reorder-window of in-flight instructions —
      a first-order stand-in for the paper's out-of-order Xeon. The
      core-model ablation in the bench shows the paper's shapes
      survive it.

    Shared cost model:
    - ALU / compare / select / store / prefetch / branch: 1 cycle each
      (stores retire through an idealised store buffer and do not
      interact with the cache model);
    - [Work n]: n cycles and n instructions (a stand-in for the
      microbenchmark's work function);
    - loads: 1 issue cycle when L1-resident; deeper hits and misses add
      their level's latency — blocking the core or merely delaying the
      destination register, depending on the core model. Software
      prefetches never block. *)

type core_model =
  | Blocking
  | Stall_on_use of { window : int }
      (** [window] bounds in-flight instructions (a ROB stand-in). *)

type config = {
  hierarchy : Aptget_cache.Hierarchy.config;
  max_instructions : int;  (** fuse against runaway kernels *)
  max_cycles : int;
      (** simulated-cycle deadline; 0 (the default) disables it. Used
          by {!Aptget_core}'s watchdog to bound a stage in simulated
          time rather than instruction count. *)
  core : core_model;
}

val default_config : config
(** Blocking core, default hierarchy, 2e9-instruction fuse. *)

val stall_on_use_config : ?window:int -> unit -> config
(** [default_config] with a stall-on-use core (window default 64). *)

type outcome = {
  cycles : int;
  instructions : int;
  dyn_loads : int;
  dyn_prefetches : int;
  ret : int option;
  counters : Aptget_cache.Hierarchy.counters;
}

val ipc : outcome -> float
val mpki : outcome -> float
(** LLC misses per kilo-instruction, from
    [offcore_requests.demand_data_rd] as in the paper (Fig. 7). *)

val memory_stall_fraction : outcome -> float
(** Fraction of cycles attributable to L3/DRAM latency (Fig. 5).
    Meaningful for the blocking core; under [Stall_on_use] overlapped
    latencies can push it past 1. *)

val late_prefetch_ratio : Aptget_cache.Hierarchy.counters -> float
(** [load_hit_pre_sw_pf / sw_prefetch_issued]: the fraction of issued
    software prefetches whose demand load arrived while the fill was
    still in flight — the prefetch distance is too short. 0 when no
    prefetches were issued. Works on whole-run counters or on a
    {!window_report} delta. *)

val early_evict_ratio : Aptget_cache.Hierarchy.counters -> float
(** [sw_prefetch_early_evict / sw_prefetch_issued]: the fraction of
    issued software prefetches whose line was evicted from the LLC
    before any demand use — the distance is too long (or the working
    set shifted). 0 when no prefetches were issued. *)

val useless_prefetch_ratio : Aptget_cache.Hierarchy.counters -> float
(** [sw_prefetch_useless] over all prefetch attempts (issued + useless
    + dropped): the fraction that probed an already-cached line and did
    nothing. Near 1.0 the hinted loads stopped missing — the working
    set shrank into cache and the prefetch slice is pure instruction
    overhead. 0 when no prefetches were attempted (so an unhinted
    program never scores). *)

type engine =
  | Interp  (** match-dispatch interpreter (differential oracle) *)
  | Compiled  (** closure-compiled plans (the default) *)

val engine_of_string : string -> engine option
(** ["interp"] or ["compiled"] (case-insensitive). *)

val engine_to_string : engine -> string

val set_default_engine : engine -> unit
(** Process default used when {!execute} gets no [?engine]. Initialised
    from [APTGET_ENGINE] when set, else [Compiled]. *)

val default_engine : unit -> engine

val total_simulated_cycles : unit -> int
(** Simulated cycles accumulated by every {!execute} in this process
    (all domains), for throughput reporting. *)

val total_execute_seconds : unit -> float
(** Wall seconds summed over every {!execute} (per-call durations, so
    overlapping parallel executes each count in full). While the
    metrics registry is enabled, each execute also refreshes the
    [sim.cycles_per_sec] gauge with the cumulative ratio. *)

exception Fuse_blown of int
(** Raised when [max_instructions] is exceeded. *)

exception Deadline_blown of { cycles : int; limit : int }
(** Raised when [max_cycles] is exceeded (only when it is positive). *)

type window_report = {
  w_index : int;  (** 0-based window number within this execution *)
  w_start_cycle : int;
  w_end_cycle : int;
  w_instructions : int;  (** instructions retired inside the window *)
  w_counters : Aptget_cache.Hierarchy.counters;
      (** counter deltas over the window (not cumulative) *)
}
(** One execution window: the slice of activity between two boundary
    crossings of the window clock. Feed [w_counters] to
    {!late_prefetch_ratio} / {!early_evict_ratio} for per-phase drift
    evidence. *)

val execute :
  ?config:config ->
  ?engine:engine ->
  ?hierarchy:Aptget_cache.Hierarchy.t ->
  ?sampler:Aptget_pmu.Sampler.t ->
  ?window_cycles:int ->
  ?on_window:(window_report -> unit) ->
  ?args:int list ->
  mem:Aptget_mem.Memory.t ->
  Ir.func ->
  outcome
(** Run [f] to its [Ret]. A supplied [hierarchy] is used as-is (warm
    caches; counters are NOT reset) — otherwise a fresh one is built
    from [config]. [args] bind the function parameters (default all 0).

    When both [window_cycles > 0] and [on_window] are given, the
    interpreter emits a {!window_report} each time the cycle clock
    crosses a multiple-of-[window_cycles] boundary, plus one trailing
    partial window at [Ret]; boundaries are checked on the same
    deterministic charge path as the sampler tick, so reports are
    byte-identical across runs. Without them the interpreter takes the
    exact pre-window code paths.

    The hardware prefetcher is clamped to [mem]'s allocated extent
    (see {!Aptget_cache.Hierarchy.set_prefetch_limit}); this holds for
    a supplied [hierarchy] too.

    Raises [Invalid_argument] on malformed IR and memory errors.

    Memory after a raise: after [Fuse_blown] or a memory error, [mem]
    holds exactly the interpreter's writes, none past the raising
    instruction. After [Deadline_blown], or an exception raised by
    [on_window], it is unspecified: the compiled engine's functional
    half may have run ahead of the timing. Callers discard the
    instance then (the watchdog's callers do). Either
    way the helper domain, if any, is joined before the exception
    leaves [execute]. *)

type stepper = {
  sp_step : unit -> bool;
      (** Perform one block dispatch (phi moves + instructions +
          terminator); false once [Ret] has executed, and on every
          later call. Raises the same exceptions at the same points as
          {!execute}. *)
  sp_cycle : unit -> int;  (** current simulated cycle of this stream *)
  sp_finish : unit -> outcome;
      (** Flush the trailing execution window (if windowed) and
          snapshot the outcome; call once the stream has finished.
          Idempotent. Does not feed the process-wide throughput
          accumulators — drivers that want that use {!execute} or
          account for the whole schedule themselves. *)
  sp_close : unit -> unit;
      (** Stop and join the stepper's producer domain, if it has one.
          Idempotent. A step that returns false or raises has already
          done it; a driver that abandons a stepper mid-run (another
          stream raised) calls it. *)
}
(** A resumable execution: {!make_stepper} runs all setup eagerly,
    then each [sp_step] advances the program by exactly one block
    dispatch. [execute f] is equivalent to stepping a fresh stepper to
    completion. The co-run scheduler ({!Corun}) interleaves steppers
    of several streams over one shared LLC; because both engines step
    one block at a time, its interleaving is engine-independent. *)

val make_stepper :
  ?config:config ->
  ?engine:engine ->
  ?hierarchy:Aptget_cache.Hierarchy.t ->
  ?sampler:Aptget_pmu.Sampler.t ->
  ?window_cycles:int ->
  ?on_window:(window_report -> unit) ->
  ?args:int list ->
  mem:Aptget_mem.Memory.t ->
  Ir.func ->
  stepper
(** Same contract and defaults as {!execute}, paused before the first
    block. *)
