module Machine = Aptget_machine.Machine
module Crash = Aptget_store.Crash

type stage = Profile | Inject | Measure

let stage_to_string = function
  | Profile -> "profile"
  | Inject -> "inject"
  | Measure -> "measure"

type budget = { max_cycles : int; max_steps : int }

let unlimited_budget = { max_cycles = 0; max_steps = 0 }

type config = {
  profile_budget : budget;
  inject_budget : budget;
  measure_budget : budget;
}

let unlimited =
  {
    profile_budget = unlimited_budget;
    inject_budget = unlimited_budget;
    measure_budget = unlimited_budget;
  }

let default =
  {
    profile_budget = { max_cycles = 1_000_000_000; max_steps = 500_000_000 };
    inject_budget = { max_cycles = 0; max_steps = 100_000 };
    measure_budget = { max_cycles = 1_000_000_000; max_steps = 500_000_000 };
  }

let budget cfg = function
  | Profile -> cfg.profile_budget
  | Inject -> cfg.inject_budget
  | Measure -> cfg.measure_budget

type timeout = {
  t_stage : stage;
  t_dimension : [ `Cycles | `Steps ];
  t_spent : int;
  t_limit : int;
}

exception Timed_out of timeout

let timeout_to_string t =
  Printf.sprintf "watchdog: %s stage exceeded its %s budget (%d > %d)"
    (stage_to_string t.t_stage)
    (match t.t_dimension with
    | `Cycles -> "simulated-cycle"
    | `Steps -> "kernel-step")
    t.t_spent t.t_limit

let () =
  Printexc.register_printer (function
    | Timed_out t -> Some ("Watchdog.Timed_out(" ^ timeout_to_string t ^ ")")
    | _ -> None)

(* 0 means "unlimited" throughout, so min must ignore zeros. *)
let min_pos a b = if a = 0 then b else if b = 0 then a else min a b

let stage_budget config stage =
  match config with None -> unlimited_budget | Some c -> budget c stage

let crash_cycle crash =
  match crash with
  | Some c when Crash.armed c -> Option.value ~default:0 (Crash.cycle_limit c)
  | _ -> 0

let cap ?config ?crash stage (mc : Machine.config) =
  let b = stage_budget config stage in
  {
    mc with
    Machine.max_cycles =
      min_pos mc.Machine.max_cycles (min_pos b.max_cycles (crash_cycle crash));
    max_instructions =
      (if b.max_steps > 0 then min mc.Machine.max_instructions b.max_steps
       else mc.Machine.max_instructions);
  }

let run ?config ?crash ~machine stage f =
  let b = stage_budget config stage in
  let kill = crash_cycle crash in
  let capped = cap ?config ?crash stage machine in
  try f capped with
  | Machine.Deadline_blown { cycles; limit } ->
    (* The run's memory is unspecified past a deadline (see
       Machine.execute); every caller drops the instance on a
       timeout. *)
    (* The armed crash point wins over the budget whenever it set (or
       tied) the effective limit: process death preempts supervision. *)
    if kill > 0 && limit = kill then
      Crash.crash_at_cycle (Option.get crash) ~cycle:cycles
    else if
      capped.Machine.max_cycles <> machine.Machine.max_cycles
      && limit = capped.Machine.max_cycles
    then
      raise
        (Timed_out
           {
             t_stage = stage;
             t_dimension = `Cycles;
             t_spent = cycles;
             t_limit = limit;
           })
    else raise (Machine.Deadline_blown { cycles; limit })
  | Machine.Fuse_blown n
    when b.max_steps > 0
         && capped.Machine.max_instructions < machine.Machine.max_instructions
    ->
    raise
      (Timed_out
         {
           t_stage = stage;
           t_dimension = `Steps;
           t_spent = n;
           t_limit = capped.Machine.max_instructions;
         })

let check_steps ?config stage ~steps =
  let b = stage_budget config stage in
  if b.max_steps > 0 && steps > b.max_steps then
    raise
      (Timed_out
         {
           t_stage = stage;
           t_dimension = `Steps;
           t_spent = steps;
           t_limit = b.max_steps;
         })
