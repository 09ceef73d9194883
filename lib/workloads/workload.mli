(** Common shape of a benchmark workload.

    A workload is a deterministic recipe: building it lays out the data
    in a simulated memory and produces the IR kernel plus its
    arguments. Every measured run (baseline, Ainsworth & Jones,
    APT-GET, distance sweeps, ...) builds its own instance, so runs
    never see each other's side effects.

    A record made by {!make} runs its recipe once if the kernel never
    stores. It keeps that first instance as a pristine image and hands
    out, on every build, a copy-on-write alias of its memory
    ({!Aptget_mem.Memory.share}) and a fresh copy of its IR. A run that
    writes anyway, for instance a shipped program with stores, copies
    the memory on its first write. A kernel that stores runs its recipe
    on every build. The image lives as long as the record: records in
    {!Suite.default} keep theirs for the life of the process. *)

type instance = {
  mem : Aptget_mem.Memory.t;
  func : Ir.func;
  args : int list;
  verify : Aptget_mem.Memory.t -> int option -> (unit, string) result;
      (** semantic check on (memory, return value) after a run *)
}

type t = {
  name : string;        (** e.g. "BFS-LBE" *)
  app : string;         (** paper application name, e.g. "BFS" *)
  input : string;       (** dataset tag, e.g. "LBE" or "80K-d8" *)
  description : string; (** Table 3 description *)
  nested : bool;        (** has a loop nest eligible for outer-site *)
  build : unit -> instance;
}

val make :
  name:string ->
  app:string ->
  input:string ->
  description:string ->
  nested:bool ->
  (unit -> instance) ->
  t
(** [make ... recipe]: the record's [build] runs [recipe] as described
    above. [recipe] must be deterministic, and the [verify] closure it
    returns must read nothing a run can change except the memory it is
    passed. Builds are safe from several domains: the first one runs
    under a lock, so the recipe of a store-free kernel runs once. *)

val alloc_guard : Aptget_mem.Memory.t -> unit
(** Allocate a trailing guard region so prefetch-slice clones that
    overshoot an array by a few elements still read in-bounds zeros
    (mirrors reading adjacent pages on real hardware). Call last,
    after all workload allocations. *)

val expect_ret : int -> Aptget_mem.Memory.t -> int option -> (unit, string) result
(** Check the kernel returned exactly this value. *)
