module Machine = Aptget_machine.Machine
module Profiler = Aptget_profile.Profiler
module Workload = Aptget_workloads.Workload
module Aj = Aptget_passes.Aj
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject
module Faults = Aptget_pmu.Faults
module Clock = Aptget_util.Clock
module Crash = Aptget_store.Crash
module Trace = Aptget_obs.Trace
module Metrics = Aptget_obs.Metrics

type measurement = Meas_cache.measurement = {
  workload : string;
  outcome : Machine.outcome;
  verified : (unit, string) result;
  injected : Inject.injected list;
  skipped : (int * string) list;
  wall_seconds : float;
}

let verified_exn m =
  match m.verified with
  | Ok () -> m
  | Error e -> failwith (Printf.sprintf "%s: verification failed: %s" m.workload e)

let speedup ~baseline m =
  float_of_int baseline.outcome.Machine.cycles
  /. float_of_int m.outcome.Machine.cycles

let instruction_overhead ~baseline m =
  float_of_int m.outcome.Machine.instructions
  /. float_of_int baseline.outcome.Machine.instructions

let mpki_reduction ~baseline m =
  let b = Machine.mpki baseline.outcome in
  if b = 0. then 0. else 1. -. (Machine.mpki m.outcome /. b)

let render_measurement label m =
  Printf.sprintf
    "%-10s cycles=%-12d instrs=%-10d IPC=%.3f MPKI=%.2f mem-stall=%s \
     prefetches=%d verified=%s\n"
    label m.outcome.Machine.cycles m.outcome.Machine.instructions
    (Machine.ipc m.outcome) (Machine.mpki m.outcome)
    (Aptget_util.Table.fmt_pct (Machine.memory_stall_fraction m.outcome))
    m.outcome.Machine.dyn_prefetches
    (match m.verified with Ok () -> "ok" | Error e -> "FAILED: " ^ e)

(* ------------------------------------------------------------------ *)
(* The measure stage: every measured run, solo or co-run, is built,    *)
(* transformed, IR-verified, executed and semantically verified here.  *)
(* ------------------------------------------------------------------ *)

module Corun = Aptget_machine.Corun
module Sampler = Aptget_pmu.Sampler

exception Invalid_ir of string

type executor = Solo | Corun of { corunner : Workload.t; policy : Corun.policy }

type run = {
  tenant : measurement;
  corunner : measurement option;
  instance : Workload.instance;
}

let build (w : Workload.t) =
  Trace.with_span ~name:"stage.build" (fun () -> w.Workload.build ())

(* [stage] is the watchdog budget the execution is charged to; it also
   names the run's spans. A profiling run ([Profile]) runs inside the
   caller's [pipeline.profile] span. *)
let measure_as stage ?config ?(executor = Solo) ?watchdog ?crash ?sampler
    ?window_cycles ?on_window ?(transform = fun _ -> ([], [])) (w : Workload.t) =
  let execute_span, in_run_span =
    match stage with
    | Watchdog.Profile -> ("stage.profile", fun f -> f ())
    | Watchdog.Inject | Watchdog.Measure ->
      ( "stage.measure",
        Trace.with_span ~name:"pipeline.run"
          ~attrs:[ ("workload", w.Workload.name) ] )
  in
  in_run_span @@ fun () ->
  let (inst, injected, skipped, co, (outcome, co_outcome)), wall_seconds =
    Clock.wall (fun () ->
        let inst = build w in
        let injected, skipped =
          Trace.with_span ~name:"stage.inject" (fun () -> transform inst)
        in
        Trace.with_span ~name:"stage.verify-ir" (fun () ->
            Result.iter_error
              (fun e -> raise (Invalid_ir e))
              (Verify.check inst.Workload.func));
        (* The co-runner is built fresh for every co-run, after the
           tenant, and runs as stream 1 with no instrumentation. *)
        let co =
          match executor with
          | Solo -> None
          | Corun { corunner; policy } -> Some (corunner, build corunner, policy)
        in
        let execute capped =
          match co with
          | None ->
            ( Machine.execute ~config:capped ?sampler ?window_cycles ?on_window
                ~args:inst.Workload.args ~mem:inst.Workload.mem
                inst.Workload.func,
              None )
          | Some ((cw : Workload.t), ci, policy) -> (
            match
              Corun.run ~config:capped ~policy
                [
                  Corun.stream ?sampler ?window_cycles ?on_window
                    ~args:inst.Workload.args ~name:w.Workload.name
                    ~mem:inst.Workload.mem inst.Workload.func;
                  Corun.stream ~args:ci.Workload.args ~name:cw.Workload.name
                    ~mem:ci.Workload.mem ci.Workload.func;
                ]
            with
            | [ t; c ] -> (t.Corun.so_outcome, Some c.Corun.so_outcome)
            | _ -> assert false)
        in
        ( inst,
          injected,
          skipped,
          co,
          Trace.with_span ~name:execute_span @@ fun () ->
          let ((o, _) as r) =
            Watchdog.run ?config:watchdog ?crash
              ~machine:(Option.value config ~default:Machine.default_config)
              stage execute
          in
          Trace.set_cycles o.Machine.cycles;
          r ))
  in
  Trace.with_span ~name:"stage.semantic-verify" @@ fun () ->
  let measurement (w : Workload.t) (i : Workload.instance) ~injected ~skipped o =
    {
      workload = w.Workload.name;
      outcome = o;
      verified = i.Workload.verify i.Workload.mem o.Machine.ret;
      injected;
      skipped;
      wall_seconds;
    }
  in
  let tenant = measurement w inst ~injected ~skipped outcome in
  let corunner =
    match (co, co_outcome) with
    | Some (cw, ci, _), Some o ->
      Some (measurement cw ci ~injected:[] ~skipped:[] o)
    | _ -> None
  in
  (* Cache sharing must never change semantics: a co-runner that fails
     its own check makes the tenant's run unverified too. *)
  let tenant =
    match corunner with
    | Some { workload; verified = Error e; _ } when tenant.verified = Ok () ->
      { tenant with verified = Error (Printf.sprintf "co-runner %s: %s" workload e) }
    | _ -> tenant
  in
  { tenant; corunner; instance = inst }

let measure = measure_as Watchdog.Measure

let refit ?(options = Profiler.default_options) ~sampler r =
  (* An analysis failure means no re-fit this time, not a failed run;
     a simulated crash still propagates. *)
  try
    Some
      (Profiler.refit ~options ~baseline:r.tenant.outcome sampler
         r.instance.Workload.func)
  with e when not (Crash.is_crashed e) -> None

let apply_hints ?(cse = false) ?veto ~hints (inst : Workload.instance) =
  let r = Aptget_pass.run ?veto inst.Workload.func ~hints in
  if cse then ignore (Aptget_passes.Cse.run inst.Workload.func);
  (r.Aptget_pass.injected, r.Aptget_pass.skipped)

let aj_pass ~distance (inst : Workload.instance) =
  let r = Aj.run ~distance inst.Workload.func in
  (r.Aj.injected, r.Aj.skipped)

let pass_of = function
  | Meas_cache.Unmodified -> None
  | Aj distance -> Some (aj_pass ~distance)
  | Hints { hints; cse } -> Some (apply_hints ~cse ~hints)

let program_of ?program w =
  match program with Some p -> p | None -> Meas_cache.program w

let key ?program ~config transform (w : Workload.t) =
  Meas_cache.key ~workload:w.Workload.name ~program:(program_of ?program w)
    ~config transform

let measured ?memo ?program ?(config = Machine.default_config) ?watchdog ?crash
    transform w =
  let run () =
    (measure ~config ?watchdog ?crash ?transform:(pass_of transform) w).tenant
  in
  match memo with
  | None -> run ()
  | Some memo ->
    Meas_cache.memoize memo
      (key ?program ~config transform w)
      ~caps:(Watchdog.cap ?config:watchdog ?crash Watchdog.Measure config)
      run

let baseline w = measured Meas_cache.Unmodified w

let aj ?(distance = Aj.default_distance) w = measured (Meas_cache.Aj distance) w

let with_hints ?config ?(cse = false) ~hints w =
  measured ?config (Meas_cache.Hints { hints; cse }) w

let profile_span (w : Workload.t) =
  Trace.with_span ~name:"pipeline.profile" ~attrs:[ ("workload", w.Workload.name) ]

let sample ?watchdog ?crash options w =
  let sampler = Profiler.sampler options in
  let r =
    measure_as Watchdog.Profile ~config:options.Profiler.machine ?watchdog
      ?crash ~sampler w
  in
  Sampler.export_metrics sampler;
  (r, sampler)

let profiled_run ?memo ?program ?(options = Profiler.default_options) ?watchdog
    ?crash w =
  profile_span w @@ fun () ->
  let r, sampler = sample ?watchdog ?crash options w in
  (* Sampling never perturbs the run: it is the unmodified run. *)
  Option.iter
    (fun memo ->
      Meas_cache.add memo
        (key ?program ~config:options.Profiler.machine Meas_cache.Unmodified w)
        r.tenant)
    memo;
  ( r,
    sampler,
    Profiler.refit ~options ~baseline:r.tenant.outcome sampler
      r.instance.Workload.func )

let profiled ?memo ?program ?options ?watchdog ?crash w =
  let r, _, p = profiled_run ?memo ?program ?options ?watchdog ?crash w in
  (r.tenant, p)

let profile ?options w = snd (profiled ?options w)

(* ------------------------------------------------------------------ *)
(* Robust pipeline: profile corruption, stale hints and verifier       *)
(* failures degrade the run instead of killing it.                     *)
(* ------------------------------------------------------------------ *)

type degradation = { stage : string; cause : string; fallback : string }

type robust = {
  r_workload : string;
  r_measurement : measurement option;
  r_baseline : measurement option;
  r_profile : Profiler.t option;
  r_hints_used : Aptget_pass.hint list;
  r_hints_dropped : (Aptget_pass.hint * string) list;
  r_degradations : degradation list;
  r_profile_retried : bool;
}

let degradation_to_string d =
  Printf.sprintf "[%s] %s -> %s" d.stage d.cause d.fallback

(* The model needs >= 8 iteration observations (its min_samples); a
   profile where no in-loop delinquent load reached that — or where the
   LBR barely fired at all — is worth one denser retry. On real
   hardware the fix is a longer profiling window; for a fixed-length
   simulated run the equivalent signal boost is a denser LBR period. *)
let profile_too_thin (p : Profiler.t) =
  p.Profiler.lbr_snapshots < 2
  || List.exists
       (fun (lp : Profiler.load_profile) ->
         lp.Profiler.latch_pc >= 0
         && Array.length lp.Profiler.iteration_times < 8)
       p.Profiler.profiles

(* Raised by run_robust's transform so its handler can tell an
   injection failure from a build or run failure. *)
exception Inject_failed of exn

let run_robust ?(faults = Faults.none) ?hints ?watchdog ?crash (w : Workload.t) =
  let degradations = ref [] in
  (* The first profiling run that completes is the baseline of record;
     a thin-profile retry runs the same unmodified kernel again. *)
  let baseline = ref None in
  let add stage cause fallback =
    Metrics.incr ("robust.degradation." ^ stage);
    degradations := { stage; cause; fallback } :: !degradations
  in
  (* Watchdog expirations degrade with their structured cause; anything
     else keeps the exception printer's text. A simulated crash
     (Crash.Crashed) is never degraded — a dead process does not fall
     back, so every handler below re-raises it. *)
  let cause_of = function
    | Watchdog.Timed_out t -> Watchdog.timeout_to_string t
    | e -> Printexc.to_string e
  in
  let go () =
    let options = { Profiler.default_options with Profiler.faults } in
    let try_profile options =
      match profiled ~options ?watchdog ?crash w with
      | m, p ->
        if Option.is_none !baseline then baseline := Some m;
        Some p
      | exception e when not (Crash.is_crashed e) ->
        add "profile" (cause_of e) "continuing without a fresh profile";
        None
    in
    (* 1. Profile (unless hints were supplied), retrying once with
       denser sampling when too few iteration samples came back. *)
    let prof, retried =
      match hints with
      | Some _ -> (None, false)
      | None -> (
        match try_profile options with
        | Some p when profile_too_thin p ->
          add "profile"
            (Printf.sprintf
               "too few iteration samples (%d LBR snapshots, %d PEBS \
                samples)"
               p.Profiler.lbr_snapshots p.Profiler.pebs_samples)
            "retried profiling with a 4x denser LBR sampling period";
          let denser =
            {
              options with
              Profiler.lbr_period = max 1_000 (options.Profiler.lbr_period / 4);
            }
          in
          (match try_profile denser with
          | Some p2 -> (Some p2, true)
          | None -> (Some p, true))
        | p -> (p, false))
    in
    (* Per-load diagnostics from the profiler become report entries
       so every fallback/skip is visible with its cause. *)
    (match prof with
    | None -> ()
    | Some p ->
      List.iter
        (fun (lp : Profiler.load_profile) ->
          match lp.Profiler.status with
          | Profiler.Hinted -> ()
          | Profiler.Fallback why ->
            add "profile"
              (Printf.sprintf "load PC %d: %s" lp.Profiler.load_pc why)
              "hint emitted with fallback parameters"
          | Profiler.Skipped why ->
            add "profile"
              (Printf.sprintf "load PC %d: %s" lp.Profiler.load_pc why)
              "no hint for this load")
        p.Profiler.profiles);
    let candidate =
      match (hints, prof) with
      | Some h, _ -> h
      | None, Some p -> p.Profiler.hints
      | None, None -> []
    in
    (* 2. Measure: validate the hints against the built program and
       inject them, then let the measure stage verify the IR, run
       and verify semantics. Every failure falls back to the
       unmodified kernel instead of raising. *)
    let validated = ref None in
    let transform (inst : Workload.instance) =
      let used, dropped =
        Profiler.validate_hints inst.Workload.func candidate
      in
      validated := Some (used, dropped);
      List.iter
        (fun ((_ : Aptget_pass.hint), why) -> add "hints" why "hint skipped")
        dropped;
      match
        (* The injection pass is pure rewriting (no simulated
           cycles), so its budget is counted in kernel steps: one
           per hint it will process. *)
        Watchdog.check_steps ?config:watchdog Watchdog.Inject
          ~steps:(List.length used);
        Aptget_pass.run inst.Workload.func ~hints:used
      with
      | exception e when not (Crash.is_crashed e) -> raise (Inject_failed e)
      | r ->
        if r.Aptget_pass.fellback then
          add "inject" "no usable hints (Algorithm 2, lines 35-38)"
            "static Ainsworth & Jones injection";
        List.iter
          (fun (pc, why) ->
            add "inject"
              (Printf.sprintf "load PC %d: %s" pc why)
              "load left unprefetched")
          r.Aptget_pass.skipped;
        (r.Aptget_pass.injected, r.Aptget_pass.skipped)
    in
    let measured r =
      (match r.tenant.verified with
      | Ok () -> ()
      | Error e -> add "semantic-verify" e "measurement reported as unverified");
      Some r.tenant
    in
    (* The unmodified kernel is the last resort. Its run is
       deterministic, so a failed one is not tried again. *)
    let unmodified () =
      match measure ?watchdog ?crash w with
      | r -> measured r
      | exception e when not (Crash.is_crashed e) ->
        add "run" (cause_of e) "no measurement for this workload";
        None
    in
    let discarded = "discarding injections; rebuilding the unmodified kernel" in
    let measurement =
      match measure ?watchdog ?crash ~transform w with
      | r -> measured r
      | exception Inject_failed e ->
        add "inject" (cause_of e) discarded;
        unmodified ()
      | exception Invalid_ir e ->
        add "verify-ir" e discarded;
        unmodified ()
      | exception e when (not (Crash.is_crashed e)) && Option.is_none !validated ->
        (* the transform never ran: the build itself failed *)
        add "build" (cause_of e) "no measurement for this workload";
        None
      | exception e when not (Crash.is_crashed e) ->
        add "run" (cause_of e) "rebuilding and running the unmodified kernel";
        unmodified ()
    in
    let hints_used, hints_dropped =
      Option.value !validated ~default:(candidate, [])
    in
    (prof, retried, hints_used, hints_dropped, measurement)
  in
  (* Last-resort catch: run_robust must never raise, even on failures
     in stages the per-stage handlers above do not anticipate. The one
     exception is a simulated crash, which models the process dying and
     therefore must propagate. *)
  let prof, retried, hints_used, hints_dropped, measurement =
    Trace.with_span ~name:"pipeline.run-robust"
      ~attrs:[ ("workload", w.Workload.name) ]
    @@ fun () ->
    try go ()
    with e when not (Crash.is_crashed e) ->
      add "pipeline" (cause_of e) "no measurement for this workload";
      (None, false, [], [], None)
  in
  {
    r_workload = w.Workload.name;
    r_measurement = measurement;
    r_baseline = !baseline;
    r_profile = prof;
    r_hints_used = hints_used;
    r_hints_dropped = hints_dropped;
    r_degradations = List.rev !degradations;
    r_profile_retried = retried;
  }

(* ------------------------------------------------------------------ *)
(* Guarded pipeline: remap stale hints, measure the candidate against  *)
(* the baseline, and quarantine hint sets that regress below a floor.  *)
(* ------------------------------------------------------------------ *)

module Remap = Aptget_profile.Remap
module Hints_file = Aptget_profile.Hints_file

let default_floor = 0.98

type fallback = Aj_static | Pinned_baseline

type guard_outcome =
  | Admitted
  | Quarantined of { speedup : float; fallback : fallback }
  | Known_bad of { prior_speedup : float; fallback : fallback }

type guarded = {
  g_workload : string;
  g_program : int;
  g_baseline : measurement;
  g_candidate : measurement option;
  g_final : measurement;
  g_speedup : float;
  g_outcome : guard_outcome;
  g_hints : Aptget_pass.hint list;
  g_remap : Remap.t option;
}

let fallback_to_string = function
  | Aj_static -> "static Ainsworth & Jones injection"
  | Pinned_baseline -> "baseline (hints vetoed)"

let guard_outcome_to_string = function
  | Admitted -> "admitted"
  | Quarantined q ->
    Printf.sprintf "quarantined (%.3fx < floor); fell back to %s" q.speedup
      (fallback_to_string q.fallback)
  | Known_bad k ->
    Printf.sprintf "known bad (%.3fx on record); fell back to %s"
      k.prior_speedup (fallback_to_string k.fallback)

let render_guard ~floor outcome =
  Printf.sprintf "guard: %s (floor %.2fx)\n" (guard_outcome_to_string outcome)
    floor

let run_guarded ?memo ?config ?(floor = default_floor) ?quarantine
    ?(remap = false) ?watchdog ?crash ?program ~(doc : Hints_file.doc)
    (w : Workload.t) =
  Trace.with_span ~name:"pipeline.run-guarded"
    ~attrs:[ ("workload", w.Workload.name) ]
  @@ fun () ->
  let program = program_of ?program w in
  let current = program.Meas_cache.fingerprint in
  let remap_result = if remap then Some (Remap.run ~current doc) else None in
  let hints =
    match remap_result with
    | Some r -> r.Remap.hints
    | None -> Hints_file.hints_of_doc doc
  in
  (* Every simulator run below is supervised: the watchdog caps the
     machine's cycle fuse, and the crash plan (if armed) can kill the
     process mid-measurement. A baseline or fallback that blows its
     budget has nothing to degrade to, so its Timed_out propagates; a
     candidate that blows its budget is quarantined at 0.0x. A run in
     [memo] answers only where it fits those caps. *)
  let measured transform =
    measured ?memo ~program ?config ?watchdog ?crash transform w
  in
  let base = measured Meas_cache.Unmodified in
  let program = current.Aptget_ir.Fingerprint.program in
  let hkey = Quarantine.hints_key hints in
  let fall_back ~reason =
    (* The pinned fallback is the injection pass with every hint vetoed.
       An all-vetoed pass leaves the IR untouched and records one skip
       per distinct load PC, in ascending order, so the run is the
       baseline's (the simulator is deterministic) plus those records:
       nothing is simulated for it. *)
    let pinned =
      {
        base with
        injected = [];
        skipped =
          List.sort_uniq compare
            (List.map (fun (h : Aptget_pass.hint) -> h.Aptget_pass.load_pc) hints)
          |> List.map (fun pc -> (pc, reason));
      }
    in
    match measured (Meas_cache.Aj Aj.default_distance) with
    | m when speedup ~baseline:base m >= floor -> (m, Aj_static)
    | _ | (exception Watchdog.Timed_out _) -> (pinned, Pinned_baseline)
  in
  let known =
    Option.bind quarantine (fun q ->
        Quarantine.find q ~workload:w.Workload.name ~program ~hints_key:hkey)
  in
  let candidate, final, outcome =
    match known with
    | Some e ->
      let final, fallback =
        fall_back
          ~reason:
            (Printf.sprintf "hint set quarantined (%.3fx on record)"
               e.Quarantine.q_speedup)
      in
      ( None,
        final,
        Known_bad { prior_speedup = e.Quarantine.q_speedup; fallback } )
    | None -> (
      let quarantine_at s =
        Option.iter
          (fun q ->
            Quarantine.add q
              {
                Quarantine.q_workload = w.Workload.name;
                q_program = program;
                q_hints = hkey;
                q_speedup = s;
              })
          quarantine
      in
      match measured (Meas_cache.Hints { hints; cse = false }) with
      | m ->
        let s = speedup ~baseline:base m in
        if s >= floor then (Some m, m, Admitted)
        else begin
          quarantine_at s;
          let final, fallback =
            fall_back
              ~reason:
                (Printf.sprintf "hint set quarantined (measured %.3fx < %.3fx)"
                   s floor)
          in
          (Some m, final, Quarantined { speedup = s; fallback })
        end
      | exception Watchdog.Timed_out t ->
        (* A candidate that never finishes is worse than one that merely
           regresses: record it at 0.0x so future runs skip it without
           re-spending the budget. *)
        quarantine_at 0.;
        let final, fallback =
          fall_back
            ~reason:
              (Printf.sprintf "hint set quarantined (%s)"
                 (Watchdog.timeout_to_string t))
        in
        (None, final, Quarantined { speedup = 0.; fallback }))
  in
  Metrics.incr
    (match outcome with
    | Admitted -> "guard.admitted"
    | Quarantined _ -> "guard.quarantined"
    | Known_bad _ -> "guard.known_bad");
  {
    g_workload = w.Workload.name;
    g_program = program;
    g_baseline = base;
    g_candidate = candidate;
    g_final = final;
    g_speedup = speedup ~baseline:base final;
    g_outcome = outcome;
    g_hints = hints;
    g_remap = remap_result;
  }

let force_distance d hints =
  List.map (fun h -> { h with Aptget_pass.distance = d }) hints

let force_site site hints =
  List.map
    (fun h ->
      match site with
      | Inject.Inner -> { h with Aptget_pass.site; sweep = 1 }
      | Inject.Outer -> { h with Aptget_pass.site })
    hints
