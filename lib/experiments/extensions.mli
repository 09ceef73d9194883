(** Extension studies beyond the paper's evaluation: the §2.5
    static-cost-model comparison, the §4.8 conditional-injection
    future work, and the hardware/software prefetch interplay the
    paper explicitly leaves open (§4.4). *)

val cost_model : Lab.t -> Aptget_util.Table.t list
(** Distances a profile-free static cost model would choose vs the
    LBR-derived ones, across work-function complexities — reproducing
    §2.5's argument that compile-time latency estimation cannot adapt
    to input-dependent work or cache behaviour. *)

val overhead_filter : Lab.t -> Aptget_util.Table.t list
(** APT-GET with and without the predicted-overhead hint filter
    (§4.8 "conditional prefetch slice injection"). *)

val all : Lab.t -> Aptget_util.Table.t list
