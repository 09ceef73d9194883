(** Deterministic crash injection for durability tests.

    A crash plan simulates the process dying at a precise, reproducible
    point: after the k-th store write (optionally tearing that write so
    only a prefix of its bytes reaches the file), or when a supervised
    simulation reaches a given cycle. Store primitives
    ({!Atomic_file.write}, {!Journal.append}) route every write through
    {!guard_write}; the watchdog maps its cycle deadline onto
    {!cycle_limit}. Raising {!Crashed} stands in for [kill -9]: no
    cleanup code runs past it, which is exactly the discipline the
    recovery paths are tested under.

    Plans are deliberately mutable single-use values: once the armed
    point fires, {!crashed} stays true and the test harness observes
    how much state survived. *)

exception Crashed of string
(** The simulated [kill -9]. Never catch this inside library code —
    recovery happens in the {e next} process (a fresh store opened on
    the same files), not in the dying one. *)

type mode =
  | Clean  (** the k-th write completes, then the process dies *)
  | Torn
      (** the process dies midway through the k-th write: only a
          prefix of its bytes reaches the file *)

type t

val none : unit -> t
(** A disarmed plan: every hook is a no-op. *)

val after_writes : ?mode:mode -> int -> t
(** [after_writes k] dies at the k-th guarded store write (1-based);
    [mode] (default {!Clean}) selects whether that write lands intact.
    @raise Invalid_argument when [k < 1]. *)

val at_cycle : int -> t
(** Die when a watchdog-supervised simulation reaches cycle [c >= 1].
    @raise Invalid_argument when [c < 1]. *)

val seeded_after_writes : ?mode:mode -> seed:int -> max_writes:int -> unit -> t
(** A reproducible kill point drawn uniformly from [1, max_writes] by a
    private {!Aptget_util.Rng} — the hook the crash-matrix CI job turns
    over different seeds. *)

val armed : t -> bool
(** A kill point is set and has not fired yet. *)

val crashed : t -> bool
(** The plan's kill point has fired. *)

val writes_seen : t -> int
(** Guarded writes observed so far (survives the crash, so a test can
    assert where the plan fired). *)

val cycle_limit : t -> int option
(** The armed cycle, when the plan is a cycle plan. *)

val guard_write : t option -> write:(string -> unit) -> string -> unit
(** [guard_write crash ~write bytes] performs one store write through
    the plan: normally just [write bytes]; on the armed write, [Clean]
    writes everything and then raises {!Crashed}, [Torn] writes a
    strict prefix and raises mid-"syscall". [None] writes directly. *)

val crash_at_cycle : t -> cycle:int -> 'a
(** Fire a cycle plan: mark the plan crashed and raise {!Crashed}.
    Called by the watchdog when the supervised run hits
    {!cycle_limit}. *)

val is_crashed : exn -> bool
(** Recognise {!Crashed} — pipeline catch-all handlers must re-raise
    it (a dead process does not degrade gracefully). *)
