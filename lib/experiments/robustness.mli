(** Robustness ablation: speedup vs profile corruption.

    The paper assumes clean profiles — exact PEBS attribution, precise
    LBR cycle stamps, no sample loss. This experiment relaxes each
    assumption in turn through {!Aptget_pmu.Faults} and measures how
    the APT-GET speedup degrades as the fault rate grows, running every
    configuration through {!Aptget_core.Pipeline.run_robust} so a
    corrupted profile degrades the plan instead of crashing the
    harness. *)

val all : Lab.t -> Aptget_util.Table.t list
