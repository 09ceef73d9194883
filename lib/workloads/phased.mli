(** Phase-changing workload for the online re-optimization study.

    The same indirect-access kernel as {!Micro} (identical IR shape,
    hence identical PCs and structural fingerprints), but the index
    array [B] is laid out phase by phase: [Hot] phases draw indices
    from a small window of the table (cache-resident — prefetching is
    pure instruction overhead there), [Cold] phases draw from the whole
    table (several times the LLC — prefetching is essential). A
    whole-program profile sees the mixture and tunes for whichever mode
    dominated its samples; the online loop ({!Aptget_adapt}) instead
    notices each phase transition and retunes.

    Two views of one program:
    - {!workload} runs all phases fused in one invocation (what the
      one-shot pipeline profiles and measures);
    - {!segments} exposes each phase as its own {!Workload.t} whose
      arguments select that phase's window of the {e same} [B]
      contents — the epochs the adaptive loop drives. Summing segment
      cycles is comparable to the fused run because the kernel,
      memory layout and index stream are byte-identical. *)

type kind = Hot | Cold

type params = {
  inner : int;  (** inner trip count *)
  complexity : int;  (** extra per-iteration work ops *)
  hot_words : int;  (** index range of [Hot] phases (cache-resident) *)
  table_words : int;  (** full table size, index range of [Cold] phases *)
  seed : int;
  phases : (kind * int) list;
      (** per-phase element counts, each a positive multiple of [inner] *)
}

val default_params : params
(** One cold lead phase, then three hot phases (so a fused profile is
    dominated by cold stalls while most elements are hot): the shape
    under which a one-shot profile ages fastest. *)

val total : params -> int
(** Sum of phase element counts. *)

val build : params -> Workload.instance
(** The fused program on a fresh memory: the recipe behind {!workload}. *)

val workload : ?params:params -> name:string -> unit -> Workload.t
(** All phases fused into a single run. *)

val segments : ?params:params -> name:string -> unit -> (kind * Workload.t) list
(** One workload per phase, named ["<name>@<i>"] (1-based), in phase
    order. All of them alias one memory image, built once, and each
    runs only its own window of [B]. *)
