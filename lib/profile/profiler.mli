(** The automated profiling pipeline of §3.4.

    One profiling run of the unmodified kernel under the simulated PMU
    yields (1) PEBS delinquent-load PCs and (2) LBR snapshots. For each
    delinquent load, the loop containing it is identified in the IR,
    its iteration-time distribution and (when nested) its trip count
    are extracted from the LBR, and the analytical model turns these
    into a prefetch distance and an injection site. The output is the
    hint list consumed by {!Aptget_passes.Aptget_pass}. *)

type options = {
  machine : Aptget_machine.Machine.config;
  lbr_period : int;
  pebs_period : int;
  top_loads : int;      (** delinquent loads to consider (default 8) *)
  min_share : float;    (** minimum share of PEBS samples (default 0.02) *)
  k : int;              (** Equation (2) constant (default 5) *)
  max_distance : int;
  max_sweep : int;      (** cap on outer-site inner-iteration sweep *)
  finder : Model.peak_finder;
  default_distance : int;
      (** used when the LBR never captured two back-edges of the loop
          (§3.6: very long loop bodies) — the paper defaults to 1 *)
  max_overhead_frac : float;
      (** conditional injection (the paper's §4.8 future work): drop a
          hint whose prefetch slice would grow the loop body by more
          than this fraction of the measured instruction component.
          Default [infinity] (filter off, the paper's behaviour). *)
  faults : Aptget_pmu.Faults.config;
      (** PMU fault injection for robustness studies. Default
          {!Aptget_pmu.Faults.none}, which leaves the profiling run
          bit-identical to a fault-free one. *)
}

val default_options : options

type status =
  | Hinted  (** a model-backed hint was emitted *)
  | Fallback of string
      (** a hint was emitted, but only by falling back (default
          distance, or inner site when the outer model was
          unavailable); the payload says why *)
  | Skipped of string
      (** no hint was emitted; the payload says why *)

type load_profile = {
  load_pc : int;
  pebs_count : int;
  latch_pc : int;
  iteration_times : float array;
  trip_count : float option;
  outer_times : float array;  (** empty when not nested / not captured *)
  model : Model.distance_model option;
  hint : Aptget_passes.Aptget_pass.hint option;
  status : status;
      (** structured diagnostic: emitted / fell back / skipped, with
          the cause — consumed by {!Aptget_core.Pipeline}'s degradation
          report *)
  note : string;  (** human-readable summary of [status] *)
}

type t = {
  hints : Aptget_passes.Aptget_pass.hint list;
  profiles : load_profile list;
  lbr_snapshots : int;
  pebs_samples : int;
  baseline : Aptget_machine.Machine.outcome;
      (** the profiling run's outcome: sampling never perturbs the
          simulation, so it is also the unmodified kernel's baseline *)
  fault_stats : Aptget_pmu.Faults.stats option;
      (** fault counters when profiling ran under an active fault
          model; [None] on clean runs *)
  fingerprint : Fingerprint.t;
      (** structural fingerprint of the profiled program, taken at
          profile time so hints can later be re-keyed against a changed
          binary ({!Remap}) *)
}

val to_doc : ?options:options -> t -> Hints_file.doc
(** Package the profile's hints as a v2 hints-file document: provenance
    (program hash, schema, a space-free summary of the hint-shaping
    options that produced it) plus each hint's structural fingerprint. *)

val sampler : options -> Aptget_pmu.Sampler.t
(** A fresh sampler with [options]' LBR and PEBS periods and, when
    [options.faults] is enabled, its fault model. Riding along the
    profiling run ({!Aptget_core.Pipeline.profiled}), it collects what
    {!refit} analyses. *)

val refit :
  ?options:options ->
  baseline:Aptget_machine.Machine.outcome ->
  Aptget_pmu.Sampler.t ->
  Ir.func ->
  t
(** The model fit, applied to a sampler that already observed an
    execution of [f]. A profile is this analysis of a {!sampler} that
    rode along the unmodified kernel. Online re-optimization feeds the
    sampler that rode along a *hinted* run, so the Eq. 1 peaks are
    re-solved from live iteration times without a dedicated profiling
    run; the resulting hint PCs address the observed (rewritten)
    program and must travel through {!Remap} to reach a fresh build. [baseline] is recorded as the profile's
    measurement of record (for re-fits, the observed hinted outcome). *)

val filter_overhead : options -> Ir.func -> t -> t
(** [filter_overhead options f p] applies [options.max_overhead_frac]
    to [p], a profile of [f] fitted with the filter off: the {!refit}
    under [options] of [p]'s run when every other analysis option is
    the same, without its sampler. *)

val validate_hints :
  Ir.func ->
  Aptget_passes.Aptget_pass.hint list ->
  Aptget_passes.Aptget_pass.hint list
  * (Aptget_passes.Aptget_pass.hint * string) list
(** Partition hints into those whose [load_pc] addresses a load in this
    program and stale ones (wrong instruction kind, or out of range —
    e.g. from a checked-in hints file that outlived a code change, or
    from PEBS skid), each with a reason. *)
