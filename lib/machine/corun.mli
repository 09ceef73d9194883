(** Multi-stream co-run scheduler: 2+ workloads interleaved over a
    shared LLC and DRAM channel, each with private L1/L2, fill
    buffers, prefetcher, sampler and counters.

    Streams are attached to one {!Aptget_cache.Hierarchy.shared} in
    list order (stream ids 0, 1, ...), so per-tenant counters,
    sampler tallies and BENCH rows stay attributable: a shared-LLC
    eviction of a software-prefetched line is charged to the stream
    that issued the prefetch, and inclusion victims are invalidated in
    every tenant's private levels.

    Scheduling is per block dispatch and fully deterministic: every
    engine steps exactly one block at a time, so the compiled and
    interpreted engines produce the same interleaving — and
    byte-identical per-stream outcomes (the differential oracle for
    the co-run subsystem). *)

type policy =
  | Round_robin  (** one block dispatch per live stream, in turn *)
  | Cycle_ratio of int list
      (** advance the live stream with the smallest [cycle / weight];
          weights are positional (missing entries default to 1) and
          must be positive. [Cycle_ratio [2; 1]] gives stream 0 twice
          the simulated cycles of stream 1. *)

val policy_to_string : policy -> string

val policy_of_string : string -> policy option
(** ["rr" | "round-robin"] or ["ratio:W0,W1,..."] with positive
    integer weights (case-insensitive). *)

type stream

val stream :
  ?args:int list ->
  ?sampler:Aptget_pmu.Sampler.t ->
  ?window_cycles:int ->
  ?on_window:(Machine.window_report -> unit) ->
  name:string ->
  mem:Aptget_mem.Memory.t ->
  Ir.func ->
  stream
(** One tenant: a function over its own memory, with the same
    optional sampler/windowing instrumentation as
    {!Machine.execute}. Window reports are per-stream, measured on
    the stream's own cycle clock and counters. *)

type stream_outcome = {
  so_name : string;
  so_outcome : Machine.outcome;  (** per-stream cycles and counters *)
}

val run :
  ?config:Machine.config ->
  ?engine:Machine.engine ->
  ?policy:policy ->
  stream list ->
  stream_outcome list
(** Run every stream to completion over one shared LLC/DRAM,
    interleaving per [policy] (default {!Round_robin}), and return
    per-stream outcomes in input order. The engine defaults to the
    process default; the interleaving is engine-independent. Each
    stream's hardware prefetcher is clamped to its own memory extent.

    Exceptions from a stream ({!Machine.Fuse_blown},
    {!Machine.Deadline_blown}, memory bounds) propagate; fuses apply
    per stream.

    Raises [Invalid_argument] on an empty stream list or non-positive
    ratio weights. *)
