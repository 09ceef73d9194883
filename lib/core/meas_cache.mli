(** The measurement memo: a deterministic simulation runs once per
    memo, keyed by what runs — the workload, a digest of its
    untransformed IR and arguments ({!program}), the machine config and
    the transform as data ({!transform}). Any edit to an IR operand, an
    argument, the machine or one hint field changes the key; there is
    no time- or version-based invalidation to get wrong. A run that
    samples, windows or co-runs, or whose transform is a closure, is
    not answered from a memo.

    A memo ({!t}) is an in-process table, safe to share between
    domains, optionally in front of a directory of records. A record is
    one text file written via {!Aptget_store.Atomic_file} (temp +
    rename) with a trailing CRC-32 line and the full key inside; a
    torn, truncated, hand-edited or colliding record reads back as a
    miss, never as a wrong measurement. *)

type measurement = {
  workload : string;
  outcome : Aptget_machine.Machine.outcome;
  verified : (unit, string) result;
  injected : Aptget_passes.Inject.injected list;
  skipped : (int * string) list;
  wall_seconds : float;
}
(** One measured run; {!Pipeline.measurement} documents the fields. *)

type transform =
  | Unmodified  (** the kernel as built; also every profiling run *)
  | Aj of int  (** the Ainsworth & Jones pass at this distance *)
  | Hints of { hints : Aptget_passes.Aptget_pass.hint list; cse : bool }
      (** the APT-GET pass over [hints] in order, then the local CSE
          cleanup when [cse] *)

type program = {
  fingerprint : Aptget_ir.Fingerprint.t;
      (** structural, for remapping and quarantine; blind to operands *)
  digest : string;  (** the printed IR and the arguments *)
}

val program : Aptget_workloads.Workload.t -> program
(** The record's program, from one build. The process keeps one entry
    per workload name, which answers only while the caller passes the
    very record ([==]) it was taken from: a warm caller builds
    nothing. *)

val shipped : Aptget_workloads.Workload.t -> text:string -> Ir.func -> program
(** The program of client-shipped [text] (parsed as the given
    function), run over the record's memory and arguments. *)

type key

val key :
  workload:string ->
  program:program ->
  config:Aptget_machine.Machine.config ->
  transform ->
  key

type t

val create : ?dir:string -> ?namespace:string -> unit -> t
(** An empty memo, over [dir] when given. [namespace] (default [""])
    isolates otherwise identical records in one directory: the serve
    daemon passes the tenant id. *)

val memoize :
  t -> key -> caps:Aptget_machine.Machine.config -> (unit -> measurement) -> measurement
(** The memo's run under the key, else the directory's (which then
    enters the memo), when it fits [caps]: its cycles and instructions
    are within the caller's limits, so the caller's own run could not
    have been stopped. Else [run ()], which is then recorded.
    Exceptions from [run] propagate unrecorded: a timed-out or crashed
    run must not poison the memo. Two domains missing together both
    run; the first result recorded is returned to both. *)

val add : t -> key -> measurement -> unit
(** Record a run made elsewhere (a profiling run is the {!Unmodified}
    run). An existing entry is kept. *)

val answered : t -> measurement list
(** Every run {!memoize} has returned, once per key: what a caller
    consulted, whoever simulated it. *)

val dir_from_env : unit -> string option
(** [Some dir] when [APTGET_CACHE] is set and non-empty. *)
