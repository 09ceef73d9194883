(** Per-stage deadlines for pipeline runs.

    A pathological input — a fault-injection config that floods the
    profiler, a hints file whose injections unroll into a runaway
    kernel — turns one trial into an unbounded simulation, which is
    fatal for a campaign that is supposed to grind through hundreds of
    them. The watchdog bounds each pipeline stage (profile / inject /
    measure) in the simulation's own units: a {e cycle} deadline
    (simulated cycles, enforced by {!Aptget_machine.Machine}'s
    [max_cycles] fuse) plus a {e kernel-step} budget (executed
    instructions for simulated stages; hints processed for the pure
    injection pass). Blowing a budget raises the structured
    {!Timed_out}, which {!Pipeline.run_robust} converts into a
    degradation and {!Campaign} treats as a retryable trial failure.

    The watchdog is also where a {!Aptget_store.Crash} cycle plan
    plugs in: an armed kill-at-cycle point caps the machine exactly
    like a deadline, but firing it raises
    {!Aptget_store.Crash.Crashed} (simulated process death) instead of
    {!Timed_out} (supervised, recoverable). *)

type stage = Profile | Inject | Measure

type budget = {
  max_cycles : int;  (** simulated-cycle deadline; 0 = unlimited *)
  max_steps : int;
      (** kernel-step budget; 0 = unlimited. Steps are executed
          instructions for [Profile]/[Measure], hints processed for
          [Inject]. *)
}

type config = {
  profile_budget : budget;
  inject_budget : budget;
  measure_budget : budget;
}

val unlimited : config

val default : config
(** Generous defaults (1e9 cycles / 5e8 steps for the simulated
    stages, 100k hints for injection): far above any legitimate
    workload in this repo, so they only ever fire on runaways. *)

val budget : config -> stage -> budget

type timeout = {
  t_stage : stage;
  t_dimension : [ `Cycles | `Steps ];
  t_spent : int;  (** where the run was when the budget fired *)
  t_limit : int;
}

exception Timed_out of timeout

val timeout_to_string : timeout -> string

val cap :
  ?config:config ->
  ?crash:Aptget_store.Crash.t ->
  stage ->
  Aptget_machine.Machine.config ->
  Aptget_machine.Machine.config
(** Tighten a machine config to the stage budget: [max_cycles] becomes
    the minimum of the existing deadline, the budget's, and any armed
    crash cycle; [max_instructions] is lowered to the step budget when
    that is smaller. With no [config] and no [crash] this is the
    identity. *)

val run :
  ?config:config ->
  ?crash:Aptget_store.Crash.t ->
  machine:Aptget_machine.Machine.config ->
  stage ->
  (Aptget_machine.Machine.config -> 'a) ->
  'a
(** [run ~machine stage f] calls [f] with the capped machine config
    and translates the machine's fuses back into watchdog terms:
    [Deadline_blown] at an armed crash cycle fires the crash plan
    ({!Aptget_store.Crash.Crashed}); [Deadline_blown] or [Fuse_blown]
    at a limit the watchdog imposed raises {!Timed_out}; fuses the
    caller's own config already carried are re-raised untouched. *)

val check_steps : ?config:config -> stage -> steps:int -> unit
(** Budget check for non-simulated stages (the injection pass):
    @raise Timed_out when the stage's step budget is positive and
    [steps] exceeds it. *)
