(** Extraction of loop statistics from LBR snapshots (paper §3.1).

    Two instances of the same back-edge branch PC in one LBR snapshot
    bracket exactly one loop iteration; subtracting their cycle stamps
    yields the iteration's execution time. Counting inner back-edge
    PCs between two outer back-edge PCs yields the inner loop's trip
    count (Fig. 3). Each statistic reads a sampler's snapshot log in
    place, in the order the snapshots were taken. *)

val iteration_times :
  Aptget_pmu.Sampler.t ->
  latch_pc:int ->
  in_loop:(int -> bool) ->
  float array
(** Cycle deltas between consecutive occurrences of [latch_pc] within a
    snapshot. A delta is kept only if every LBR entry between the two
    occurrences satisfies [in_loop] on its branch PC — otherwise the
    loop was exited and re-entered and the delta spans foreign code. *)

val trip_counts :
  Aptget_pmu.Sampler.t ->
  inner_latch_pc:int ->
  outer_latch_pc:int ->
  float array
(** Number of inner back-edges between consecutive outer back-edges,
    one observation per outer-iteration window fully contained in a
    snapshot. *)

val occurrences : Aptget_pmu.Sampler.t -> pc:int -> int
(** Total occurrences of a branch PC across all snapshots. *)
