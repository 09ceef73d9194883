(** Ablation studies for the design choices called out in DESIGN.md. *)

val peak_finder : Lab.t -> Aptget_util.Table.t list
(** CWT ridge-line peak detection vs the naive smoothed-argmax. *)

val mshr : Lab.t -> Aptget_util.Table.t list
(** Sensitivity of prefetching gains to fill-buffer capacity. *)

val sweep : Lab.t -> Aptget_util.Table.t list
(** Outer-site inner-iteration sweep width on the hash join. *)

val core_model : Lab.t -> Aptget_util.Table.t list
(** Blocking core vs the stall-on-use (OoO stand-in) core: do the
    headline shapes survive latency overlap? *)

val cse : Lab.t -> Aptget_util.Table.t list
(** Instruction-overhead effect of the post-injection CSE cleanup. *)

val bandwidth : Lab.t -> Aptget_util.Table.t list
(** DRAM bandwidth sensitivity: prefetching cannot beat the channel. *)

val all : Lab.t -> Aptget_util.Table.t list
