(** Re-keying stale hints onto a changed program.

    The paper's hints name loads by PC, which is exactly what a
    recompile invalidates (PAPERS.md, the Go-PGO stale-profile design
    point). Given a v2 hints document carrying per-load structural
    fingerprints and the fingerprint of the {e current} program, this
    module decides, per hint:

    - {b keep} it, when its PC still addresses a structurally-matching
      load (or when a legacy v1 hint's PC still addresses a load — no
      fingerprint, nothing to compare);
    - {b remap} it, when the PC is stale but some load of the current
      program matches its fingerprint with confidence at or above
      [accept];
    - {b rescale} it, when the best match is plausible but imperfect
      (confidence in [[min_confidence, accept))) — the hint moves to the
      matched PC with its prefetch distance scaled down by the
      confidence, hedging a possibly-wrong timing model;
    - {b drop} it, with a recorded reason, when nothing matches well
      enough (or two hints contend for the same target load — the more
      confident one wins).

    The output hint list is always valid input for
    {!Aptget_passes.Aptget_pass.run}; the report preserves one decision
    per input hint for diagnostics and the CLI's [--remap] table. *)

type config = {
  accept : float;
      (** similarity at or above which a match is trusted as-is
          (default 0.85) *)
  min_confidence : float;
      (** similarity below which a match is rejected outright
          (default 0.55) *)
}

type decision =
  | Kept  (** PC still valid; hint unchanged *)
  | Remapped of { pc : int; confidence : float }
      (** moved to the fingerprint-matched load at [pc] *)
  | Rescaled of { pc : int; confidence : float; distance : int }
      (** moved to [pc] with the distance scaled down by [confidence] *)
  | Dropped of string  (** rejected; the payload says why *)

type t = {
  hints : Aptget_passes.Aptget_pass.hint list;
      (** the surviving hints, post-remap, in input order *)
  report : (Aptget_passes.Aptget_pass.hint * decision) list;
      (** one decision per input hint, in input order *)
  kept : int;
  remapped : int;
  rescaled : int;
  dropped : int;
}

val run :
  ?config:config -> current:Fingerprint.t -> Hints_file.doc -> t
(** Remap every hint of [doc] against the current program's
    fingerprint, under [config] (default: the thresholds above). Pure —
    the decision depends only on the document and the fingerprint, so
    repeated runs agree. *)

val decision_to_string : decision -> string

val render_summary : t -> string
(** The [remap:] counts line that [aptget run] and serve responses
    print. *)
