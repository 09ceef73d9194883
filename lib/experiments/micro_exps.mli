(** §2 motivation experiments on the Listing-1 microbenchmark. *)

val median_snapshot : Aptget_pmu.Sampler.t -> Aptget_pmu.Sampler.snapshot
(** The snapshot with the median capture cycle (the upper median for an
    even count). Raises [Invalid_argument] when the sampler holds no
    snapshot. *)

val table1 : Lab.t -> Aptget_util.Table.t list
(** Prefetch accuracy and timeliness vs distance {none, 1, 64, 1024}. *)

val fig1 : Lab.t -> Aptget_util.Table.t list
(** Speedup vs prefetch distance for low/medium/high work complexity,
    INNER = 256. *)

val fig2 : Lab.t -> Aptget_util.Table.t list
(** Speedup vs prefetch distance for inner trip counts {4, 16, 64}. *)

val fig3 : Lab.t -> Aptget_util.Table.t list
(** An LBR snapshot rendered as in Fig. 3, plus the loop statistics
    (trip count, iteration time) recovered from it. *)

val fig4 : Lab.t -> Aptget_util.Table.t list
(** Loop execution-time distribution of a delinquent load with the
    CWT-detected peaks. *)
