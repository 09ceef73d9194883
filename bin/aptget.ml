(* Command-line driver for the APT-GET reproduction.

   aptget list                       workloads and experiments
   aptget run BFS-LBE                baseline/A&J/APT-GET comparison
   aptget profile HJ8-NPO            delinquent loads, models, hints
   aptget show-ir HJ2-NPO            kernel IR before/after injection
   aptget experiments fig6 fig8      regenerate paper tables/figures
   aptget campaign --store c.journal supervised checkpoint/resume campaign
   aptget serve --spool DIR          prefetch-advisory daemon (spool or socket)
   aptget loadgen --connect ADDR     sustained-req/s load generator
   aptget quarantine FILE            inspect/compact a quarantine store

   Exit codes are uniform across commands: 0 ok, 1 degraded, 2 usage,
   3 crashed/supervision, 4 shed/overloaded.
*)

module Machine = Aptget_machine.Machine
module Corun = Aptget_machine.Corun
module Hierarchy = Aptget_cache.Hierarchy
module Pipeline = Aptget_core.Pipeline
module Workload = Aptget_workloads.Workload
module Suite = Aptget_workloads.Suite
module Profiler = Aptget_profile.Profiler
module Model = Aptget_profile.Model
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject
module Registry = Aptget_experiments.Registry
module Lab = Aptget_experiments.Lab
module Table = Aptget_util.Table
module Faults = Aptget_pmu.Faults

module Remap = Aptget_profile.Remap
module Hints_file = Aptget_profile.Hints_file
module Quarantine = Aptget_core.Quarantine
module Campaign = Aptget_core.Campaign
module Watchdog = Aptget_core.Watchdog
module Crash = Aptget_store.Crash
module Journal = Aptget_store.Journal
module Breaker = Aptget_core.Breaker
module Adapt = Aptget_adapt.Adapt
module Drift = Aptget_adapt.Drift
module Phased = Aptget_workloads.Phased
module Server = Aptget_serve.Server
module Wire = Aptget_serve.Wire
module Handler = Aptget_serve.Handler
module Tenant = Aptget_serve.Tenant
module Health = Aptget_serve.Health
module Exit_code = Aptget_serve.Exit_code
module Transport = Aptget_serve.Transport
module Net_faults = Aptget_serve.Net_faults
module Client = Aptget_serve.Client
module Stats = Aptget_util.Stats
module Backoff = Aptget_util.Backoff
module Metrics = Aptget_obs.Metrics

open Cmdliner

(* Bad flag values get one line on stderr and exit code 2 (the usual
   CLI usage-error convention) instead of an exception trace. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "aptget: %s\n" msg;
      exit 2)
    fmt

(* Unified numeric-range validation: every range-checked flag value in
   run/campaign/serve funnels through these, so a bad value always
   produces the same one-line stderr shape and exit code 2. *)
let int_min flag min v =
  if v < min then die "bad --%s value: %d (need >= %d)" flag v min

let int_min_opt flag min v = Option.iter (int_min flag min) v

let float_min ?(exclusive = false) flag min v =
  if v < min || (exclusive && v = min) then
    die "bad --%s value: %g (need %s %g)" flag v
      (if exclusive then ">" else ">=")
      min

let float_range flag ~gt ~le v =
  if v <= gt || v > le then
    die "bad --%s value: %g outside (%g, %g]" flag v gt le

(* --jobs, shared by the commands that fan simulations across domains.
   The flag overrides APTGET_JOBS, which overrides the machine's domain
   count (see Aptget_util.Pool.default_jobs). *)
let jobs_term =
  let flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run up to $(docv) simulations in parallel (domains). Defaults \
             to the $(b,APTGET_JOBS) environment variable, then the \
             machine's available core count. Results are byte-identical to \
             a serial run.")
  in
  let apply = function
    | Some j when j < 1 -> die "bad --jobs value: %d (need >= 1)" j
    | j -> Option.iter (fun j -> Aptget_util.Pool.set_default_jobs (Some j)) j
  in
  Term.(const apply $ flag)

(* --engine, shared by every command that runs simulations. The flag
   overrides APTGET_ENGINE; the default is the compiled engine. All
   engines produce identical cycles, counters and outcomes — interp is
   kept as the differential oracle. *)
let engine_term =
  let flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Simulator engine: $(b,compiled) (closure-compiled blocks; \
             the default) or $(b,interp) (the reference interpreter). \
             Engines are byte-identical in every simulated number; they \
             differ only in wall-clock speed. Overrides the \
             $(b,APTGET_ENGINE) environment variable.")
  in
  let apply = function
    | None -> ()
    | Some s -> (
      match Machine.engine_of_string s with
      | Some e -> Machine.set_default_engine e
      | None -> die "bad --engine value: %s (known: compiled, interp)" s)
  in
  Term.(const apply $ flag)

(* --trace/--metrics sidecars. Enabling either turns the obs layer on
   and registers an at_exit exporter, so even the campaign command's
   explicit [exit] paths still flush the files. *)
let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write an NDJSON span trace of the run to $(docv) on exit \
             (inspect it with $(b,aptget obs-report)). Off by default; all \
             outputs are byte-identical when off.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry (counters, gauges, histograms) to \
             $(docv) on exit: JSON when $(docv) ends in $(b,.json), sorted \
             plain text otherwise.")
  in
  let apply trace metrics = Aptget_obs.Obs.install ?trace ?metrics () in
  Term.(const apply $ trace $ metrics)

(* --fault-* flags, shared by [run] and [profile]: every knob of the
   simulated-PMU fault model. [--fault-defaults] switches the base
   config to the documented default mix; explicit knobs override it. *)
let faults_term =
  let defaults =
    Arg.(
      value & flag
      & info [ "fault-defaults" ]
          ~doc:
            "Profile under the documented default PMU fault mix (10% LBR \
             drop, +/-8 cycle jitter, 5% ring truncation, 20% PEBS skid, \
             throttling). Individual $(b,--fault-*) flags override it.")
  in
  let opt_of kind name doc =
    Arg.(value & opt (some kind) None & info [ name ] ~docv:"VAL" ~doc)
  in
  let drop = opt_of Arg.float "fault-lbr-drop" "Probability a due LBR snapshot is lost." in
  let jitter = opt_of Arg.int "fault-jitter" "Max +/- perturbation of LBR cycle stamps." in
  let truncate = opt_of Arg.float "fault-truncate" "Probability an LBR snapshot is truncated to a ring suffix." in
  let skid = opt_of Arg.float "fault-skid" "Probability a PEBS sample skids to a neighbouring PC." in
  let skid_max = opt_of Arg.int "fault-skid-max" "Maximum PEBS skid distance in PC slots." in
  let budget = opt_of Arg.int "fault-throttle-budget" "Adaptive throttling: max samples per window (0 = off)." in
  let seed = opt_of Arg.int "fault-seed" "Seed for the fault schedule." in
  let build defaults drop jitter truncate skid skid_max budget seed =
    let base = if defaults then Faults.default_faulty else Faults.none in
    let or_ dflt = Option.value ~default:dflt in
    let cfg =
      {
        base with
        Faults.lbr_drop_rate = or_ base.Faults.lbr_drop_rate drop;
        cycle_jitter = or_ base.Faults.cycle_jitter jitter;
        lbr_truncate_rate = or_ base.Faults.lbr_truncate_rate truncate;
        pebs_skid_rate = or_ base.Faults.pebs_skid_rate skid;
        pebs_skid_max = or_ base.Faults.pebs_skid_max skid_max;
        throttle_budget = or_ base.Faults.throttle_budget budget;
        seed = or_ base.Faults.seed seed;
      }
    in
    match Faults.validate cfg with
    | Ok () -> cfg
    | Error e -> die "bad --fault-* value: %s" e
  in
  Term.(
    const build $ defaults $ drop $ jitter $ truncate $ skid $ skid_max
    $ budget $ seed)

let print_fault_stats = function
  | None -> ()
  | Some (s : Faults.stats) ->
    Printf.printf
      "fault stats: %d LBR snapshots dropped, %d truncated, %d stamps \
       jittered, %d PEBS samples skidded, %d throttled (backoff x%.0f)\n"
      s.Faults.lbr_dropped s.Faults.lbr_truncated s.Faults.stamps_jittered
      s.Faults.pebs_skidded s.Faults.throttled s.Faults.backoff_factor

let print_degradations (r : Pipeline.robust) =
  match r.Pipeline.r_degradations with
  | [] -> Printf.printf "degradation report: clean (no fallbacks)\n"
  | ds ->
    Printf.printf "degradation report (%d entries%s):\n" (List.length ds)
      (if r.Pipeline.r_profile_retried then "; profile retried once" else "");
    List.iter
      (fun d -> Printf.printf "  %s\n" (Pipeline.degradation_to_string d))
      ds

let workload_of_name name =
  match Suite.find name with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown workload %s; try: %s" name
         (String.concat ", "
            (List.map (fun w -> w.Workload.name) Suite.extended)))

let workload_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (workload_of_name s)),
      fun fmt w -> Format.pp_print_string fmt w.Workload.name )

let workload_arg =
  Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")

let print_outcome label m = print_string (Pipeline.render_measurement label m)

(* Where [aptget run]'s hints come from: a profiling run made here, or
   a hints file and its (lazily read) document. *)
type source =
  | Fresh of (Pipeline.measurement * Profiler.t) Lazy.t
  | File of string * Hints_file.doc Lazy.t

(* How the hints are applied: as they are, re-keyed by fingerprint,
   behind the regression guard, or by the never-raising robust
   pipeline. *)
type stage = Plain | Remapped | Guarded | Robust

let run_cmd =
  let load_doc ~lenient path =
    let skip (doc, errors) =
      List.iter
        (fun (lineno, e) -> Printf.eprintf "%s:%d: skipped: %s\n" path lineno e)
        errors;
      doc
    in
    match
      if lenient then Result.map skip (Hints_file.load_doc_lenient ~path)
      else Hints_file.load_doc ~path
    with
    | Ok doc -> doc
    | Error e ->
      Printf.eprintf "cannot load hints from %s: %s\n" path e;
      exit 1
  in
  let print_remap (r : Remap.t) =
    print_string (Remap.render_summary r);
    List.iter
      (fun ((h : Aptget_pass.hint), d) ->
        Printf.printf "  pc=%d: %s\n" h.Aptget_pass.load_pc
          (Remap.decision_to_string d))
      r.Remap.report
  in
  let print_quarantine q =
    let entries = Quarantine.entries q in
    Printf.printf "quarantine store%s: %d entry(ies)\n"
      (match Quarantine.path q with Some p -> " " ^ p | None -> "")
      (List.length entries);
    List.iter
      (fun (e : Quarantine.entry) ->
        Printf.printf "  %s: hint set %s measured %s\n" e.Quarantine.q_workload
          (Aptget_ir.Fingerprint.hex e.Quarantine.q_hints)
          (Table.fmt_speedup e.Quarantine.q_speedup))
      entries
  in
  (* --corun: interleave the workload with a co-runner on the shared
     LLC/DRAM hierarchy and report how the solo-tuned hints fare under
     contention. Four runs: solo baseline, solo APT-GET, co-run
     baseline, co-run with the (now stale) solo hints. *)
  let run_corun w (co : Workload.t) ~policy ~options =
    let policy =
      match Corun.policy_of_string policy with
      | Some p -> p
      | None ->
        die "bad --corun-policy value: %s (rr | ratio:W0,W1,...)" policy
    in
    let corun ?transform () =
      Pipeline.measure
        ~executor:(Pipeline.Corun { corunner = co; policy })
        ?transform w
    in
    Printf.printf "co-runner %s (%s on %s), policy %s\n\n" co.Workload.name
      co.Workload.app co.Workload.input
      (Corun.policy_to_string policy);
    let solo_base, prof = Pipeline.profiled ~options w in
    print_outcome "solo base" solo_base;
    print_fault_stats prof.Profiler.fault_stats;
    let solo_apt = Pipeline.with_hints ~hints:prof.Profiler.hints w in
    print_outcome "solo APT" solo_apt;
    let cr_base = corun () in
    print_outcome "corun base" cr_base.Pipeline.tenant;
    let cr_apt =
      corun ~transform:(Pipeline.apply_hints ~hints:prof.Profiler.hints) ()
    in
    print_outcome "corun APT" cr_apt.Pipeline.tenant;
    print_outcome "co-runner" (Option.get cr_base.Pipeline.corunner);
    Printf.printf
      "\nspeedup: solo %s, co-run (stale solo hints) %s (%d hint(s))\n"
      (Table.fmt_speedup (Pipeline.speedup ~baseline:solo_base solo_apt))
      (Table.fmt_speedup
         (Pipeline.speedup ~baseline:cr_base.Pipeline.tenant cr_apt.Pipeline.tenant))
      (List.length prof.Profiler.hints);
    (* A co-runner that fails its check makes its tenant unverified. *)
    let degraded =
      List.exists
        (fun (m : Pipeline.measurement) ->
          Result.is_error m.Pipeline.verified)
        [ solo_base; solo_apt; cr_base.Pipeline.tenant; cr_apt.Pipeline.tenant ]
    in
    if degraded then exit 1
  in
  (* --online: the self-healing loop. One epoch per segment — natural
     phases for the phased workload, [--epochs] replicas otherwise —
     with the drift detector, dwell guard, retune breaker and the
     guarded degradation ladder between epochs. *)
  let run_online w ~options ~guard_floor ?quarantine ~epochs ~drift () =
    let config =
      { Adapt.default_config with Adapt.drift; floor = guard_floor; options }
    in
    let segments =
      if w.Workload.name = "phased" then
        List.map snd (Phased.segments ~name:"phased" ())
      else Adapt.replicate epochs w
    in
    let profile = Adapt.prime ~config w in
    print_fault_stats profile.Profiler.fault_stats;
    Printf.printf "profiled %s: %d hint(s); online loop over %d segment(s)\n\n"
      w.Workload.name
      (List.length profile.Profiler.hints)
      (List.length segments);
    match Adapt.run ~config ?quarantine ~profile ~name:w.Workload.name segments with
    | report -> print_string (Adapt.render report)
    | exception Failure e ->
      Printf.eprintf "aptget: online run failed: %s\n" e;
      exit 1
  in
  let run w hints_path lenient robust remap guard guard_floor quarantine_path
      online epochs drift corun corun_policy faults () () =
    float_range "guard-floor" ~gt:0. ~le:1.5 guard_floor;
    int_min "epochs" 1 epochs;
    (* A run's mode is the first of these flags given, else plain. Every
       mode flag lists the modes it applies to; one given outside them
       is rejected rather than silently ignored. *)
    let mode =
      List.find_opt snd
        [
          ("--corun", corun <> None); ("--online", online); ("--guard", guard);
          ("--remap", remap); ("--robust", robust);
        ]
      |> Option.fold ~none:"plain" ~some:fst
    in
    let reads_hints = [ "--guard"; "--remap"; "--robust"; "plain" ] in
    List.iter
      (fun (flag, given, modes) ->
        if given && flag <> mode && not (List.mem mode modes) then
          if modes = [] then die "%s needs --hints" flag
          else die "%s does not apply to %s runs" flag mode)
      [
        ("--hints", hints_path <> None, reads_hints);
        ("--lenient-hints", lenient, if hints_path = None then [] else reads_hints);
        ("--robust", robust, [ "--robust" ]);
        ("--remap", remap, [ "--guard" ]);
        ("--guard", guard, [ "--guard" ]);
        ("--quarantine", quarantine_path <> None, [ "--guard"; "--online" ]);
        ("--online", online, [ "--online" ]);
        ("--corun-policy", corun_policy <> None, [ "--corun" ]);
      ];
    Printf.printf "workload %s (%s on %s)\n\n" w.Workload.name w.Workload.app
      w.Workload.input;
    let options = { Profiler.default_options with Profiler.faults } in
    let quarantine =
      Option.map (fun path -> Quarantine.create ~path ()) quarantine_path
    in
    match corun with
    | Some co ->
      run_corun w co ~policy:(Option.value corun_policy ~default:"rr") ~options
    | None ->
    if online then
      run_online w ~options ~guard_floor ?quarantine ~epochs ~drift ()
    else
    (* Source -> apply -> report. The source yields the hints doc and
       the baseline of record: a fresh profiling run is both, and under
       --robust Pipeline.run_robust profiles and hands its run back. A
       hints file is read once the baseline and A&J lines are out, so a
       bad one still reports them. *)
    let stage =
      if guard then Guarded
      else if remap then Remapped
      else if robust then Robust
      else Plain
    in
    let source =
      match hints_path with
      | Some path -> File (path, lazy (load_doc ~lenient path))
      | None -> Fresh (lazy (Pipeline.profiled ~options w))
    in
    let from, doc =
      match source with
      | Fresh p ->
        ( " from a fresh profile",
          lazy (Profiler.to_doc ~options (snd (Lazy.force p))) )
      | File (path, d) -> (" from " ^ path, d)
    in
    let robust_run =
      lazy
        (Pipeline.run_robust ~faults
           ?hints:
             (Option.map (fun _ -> Hints_file.hints_of_doc (Lazy.force doc))
                hints_path)
           w)
    in
    let base, fault_stats =
      match (source, stage) with
      | Fresh _, Robust -> (
        match (Lazy.force robust_run).Pipeline.r_baseline with
        | Some b -> (b, None)
        | None -> (Pipeline.baseline w, None))
      | Fresh p, _ ->
        let b, prof = Lazy.force p in
        (b, Some prof.Profiler.fault_stats)
      | File _, _ -> (Pipeline.baseline w, None)
    in
    print_outcome "baseline" base;
    let aj = Pipeline.aj w in
    print_outcome "A&J" aj;
    Option.iter print_fault_stats fault_stats;
    (* Apply: print the hinted run and what the stage reports about it;
       return that run, when there is one, and the hint count of the
       speedup line. *)
    let final, hint_count =
      match stage with
      | Plain | Remapped ->
        (* --remap without --guard re-keys the hints, then applies them
           unguarded (the historical pipeline, just with fresh PCs). *)
        let hints =
          if stage = Plain then Hints_file.hints_of_doc (Lazy.force doc)
          else begin
            let current =
              Aptget_ir.Fingerprint.fingerprint
                (w.Workload.build ()).Workload.func
            in
            let r = Remap.run ~current (Lazy.force doc) in
            print_remap r;
            r.Remap.hints
          end
        in
        let apt = Pipeline.with_hints ~hints w in
        print_outcome "APT-GET" apt;
        ( Some apt,
          Printf.sprintf
            (if stage = Plain then "%d hints%s" else "%d hint(s)%s")
            (List.length hints) from )
      | Guarded ->
        (* The guard's A&J fallback is the run printed above. *)
        let measure_cache ~variant run =
          if variant = "guard-aj" then aj else run ()
        in
        let g =
          Pipeline.run_guarded ?quarantine ~remap ~floor:guard_floor
            ~measure_cache ~baseline:base ~doc:(Lazy.force doc) w
        in
        print_outcome "APT-GET" g.Pipeline.g_final;
        Option.iter print_remap g.Pipeline.g_remap;
        print_string
          (Pipeline.render_guard ~floor:guard_floor g.Pipeline.g_outcome);
        Option.iter print_quarantine quarantine;
        ( Some g.Pipeline.g_final,
          Printf.sprintf "%d hint(s)%s" (List.length g.Pipeline.g_hints) from )
      | Robust ->
        let r = Lazy.force robust_run in
        (match r.Pipeline.r_measurement with
        | None -> Printf.printf "APT-GET (robust): no measurement\n"
        | Some apt ->
          print_outcome "APT-GET" apt;
          Option.iter
            (fun (p : Profiler.t) -> print_fault_stats p.Profiler.fault_stats)
            r.Pipeline.r_profile);
        print_degradations r;
        ( r.Pipeline.r_measurement,
          Printf.sprintf "%d hints used, %d dropped"
            (List.length r.Pipeline.r_hints_used)
            (List.length r.Pipeline.r_hints_dropped) )
    in
    (* Report. Unified exit codes: 0 = ok, 1 = degraded (the command
       completed but the final measurement is missing or unverified). *)
    match final with
    | None -> exit 1
    | Some apt ->
      Printf.printf "\nspeedup: A&J %s, APT-GET %s (%s)\n"
        (Table.fmt_speedup (Pipeline.speedup ~baseline:base aj))
        (Table.fmt_speedup (Pipeline.speedup ~baseline:base apt))
        hint_count;
      if Result.is_error apt.Pipeline.verified then exit 1
  in
  let hints_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "hints" ] ~docv:"FILE"
          ~doc:"Use previously saved hints instead of profiling")
  in
  let lenient_flag =
    Arg.(
      value & flag
      & info [ "lenient-hints" ]
          ~doc:
            "Parse $(b,--hints) leniently: keep well-formed lines, report \
             the rest to stderr instead of aborting")
  in
  let robust_flag =
    Arg.(
      value & flag
      & info [ "robust" ]
          ~doc:
            "Use the never-raising robust pipeline: stale hints, corrupted \
             profiles and verifier failures degrade the run and are listed \
             in a degradation report")
  in
  let remap_flag =
    Arg.(
      value & flag
      & info [ "remap" ]
          ~doc:
            "Re-key stale hints by structural fingerprint before applying \
             them (v2 hints files carry per-load fingerprints)")
  in
  let guard_flag =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:
            "Guarded run: measure the hinted kernel against the baseline and \
             fall back (A&J, then baseline) when its speedup is below the \
             guard floor")
  in
  let guard_floor_flag =
    Arg.(
      value
      & opt float Pipeline.default_floor
      & info [ "guard-floor" ] ~docv:"RATIO"
          ~doc:"Minimum admissible speedup for $(b,--guard), in (0, 1.5]")
  in
  let quarantine_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "quarantine" ] ~docv:"FILE"
          ~doc:
            "Persist guard verdicts: hint sets rejected by $(b,--guard) are \
             recorded here and skipped on later runs")
  in
  let online_flag =
    Arg.(
      value & flag
      & info [ "online" ]
          ~doc:
            "Online re-optimization: profile once, then run the workload in \
             segments while the sampler re-profiles inside the simulator; \
             drifted segments retune mid-run through the guarded \
             degradation ladder (retuned, remapped, A&J, pinned baseline). \
             All $(b,--drift-*) flags and $(b,--guard-floor) apply; the \
             retune log is byte-identical across $(b,--jobs).")
  in
  let epochs_flag =
    Arg.(
      value & opt int 4
      & info [ "epochs" ] ~docv:"N"
          ~doc:
            "With $(b,--online), segments to run for workloads without \
             natural phases (the $(b,phased) workload always uses its own \
             phase list).")
  in
  let drift_term =
    let d = Drift.default_config in
    let fopt name dflt doc =
      Arg.(value & opt float dflt & info [ name ] ~docv:"R" ~doc)
    in
    let iopt name dflt doc =
      Arg.(value & opt int dflt & info [ name ] ~docv:"N" ~doc)
    in
    let late =
      fopt "drift-late" d.Drift.late_threshold
        "Late-prefetch ratio scored as a full drift vote."
    in
    let early =
      fopt "drift-early" d.Drift.early_threshold
        "Early-evict ratio scored as a full drift vote."
    in
    let useless =
      fopt "drift-useless" d.Drift.useless_threshold
        "Useless-prefetch ratio scored as a full drift vote."
    in
    let mpki =
      fopt "drift-mpki-jump" d.Drift.mpki_jump
        "Relative MPKI jump against the plan's reference scored as a full \
         drift vote."
    in
    let iter =
      fopt "drift-iter-jump" d.Drift.iter_jump
        "Relative median iteration-time shift scored as a full drift vote."
    in
    let hysteresis =
      iopt "drift-hysteresis" d.Drift.hysteresis
        "Consecutive drifted windows required per verdict."
    in
    let dwell =
      iopt "drift-dwell" d.Drift.min_dwell
        "Verdict-free epochs after each retune (oscillation guard)."
    in
    let window =
      iopt "drift-window" d.Drift.min_window_instructions
        "Ignore counter windows retiring fewer instructions than $(docv)."
    in
    let build late early useless mpki iter hysteresis dwell window =
      float_min ~exclusive:true "drift-late" 0. late;
      float_min ~exclusive:true "drift-early" 0. early;
      float_min ~exclusive:true "drift-useless" 0. useless;
      float_min ~exclusive:true "drift-mpki-jump" 0. mpki;
      float_min ~exclusive:true "drift-iter-jump" 0. iter;
      int_min "drift-hysteresis" 1 hysteresis;
      int_min "drift-dwell" 0 dwell;
      int_min "drift-window" 1 window;
      {
        Drift.late_threshold = late;
        early_threshold = early;
        useless_threshold = useless;
        mpki_jump = mpki;
        iter_jump = iter;
        hysteresis;
        min_dwell = dwell;
        min_window_instructions = window;
      }
    in
    Term.(
      const build $ late $ early $ useless $ mpki $ iter $ hysteresis $ dwell
      $ window)
  in
  let corun_flag =
    Arg.(
      value
      & opt (some workload_conv) None
      & info [ "corun" ] ~docv:"WORKLOAD"
          ~doc:
            "Co-run $(docv) alongside the main workload on the shared \
             LLC/DRAM hierarchy: solo baseline and APT-GET first, then the \
             co-run baseline and the solo-tuned hints under contention, \
             with per-tenant cycle/counter attribution")
  in
  let corun_policy_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "corun-policy" ] ~docv:"POLICY"
          ~doc:
            "Scheduler for $(b,--corun): $(b,rr) (round-robin block \
             dispatch, the default) or $(b,ratio:W0,W1,...) (advance the \
             live stream with the smallest weighted cycle count)")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a workload under baseline, A&J and APT-GET")
    Term.(
      const run $ workload_arg $ hints_flag $ lenient_flag $ robust_flag
      $ remap_flag $ guard_flag $ guard_floor_flag $ quarantine_flag
      $ online_flag $ epochs_flag $ drift_term $ corun_flag
      $ corun_policy_flag $ faults_term $ obs_term $ engine_term)

let profile_cmd =
  let profile w output faults () () =
    let options = { Profiler.default_options with Profiler.faults } in
    let prof = Pipeline.profile ~options w in
    Printf.printf
      "profiled %s: %d LBR snapshots, %d PEBS samples, baseline IPC %.3f\n"
      w.Workload.name prof.Profiler.lbr_snapshots prof.Profiler.pebs_samples
      (Machine.ipc prof.Profiler.baseline);
    print_fault_stats prof.Profiler.fault_stats;
    print_newline ();
    let t =
      Table.create ~title:"delinquent loads"
        ~header:
          [ "load PC"; "PEBS"; "iters"; "trip"; "IC"; "MC"; "distance"; "site"; "note" ]
    in
    List.iter
      (fun (p : Profiler.load_profile) ->
        let model_cell f =
          match p.Profiler.model with
          | Some m -> f m
          | None -> "-"
        in
        Table.add_row t
          [
            string_of_int p.Profiler.load_pc;
            string_of_int p.Profiler.pebs_count;
            string_of_int (Array.length p.Profiler.iteration_times);
            (match p.Profiler.trip_count with
            | Some tc -> Printf.sprintf "%.1f" tc
            | None -> "-");
            model_cell (fun m -> Printf.sprintf "%.0f" m.Model.ic_latency);
            model_cell (fun m -> Printf.sprintf "%.0f" m.Model.mc_latency);
            (match p.Profiler.hint with
            | Some h -> string_of_int h.Aptget_pass.distance
            | None -> "-");
            (match p.Profiler.hint with
            | Some h -> Inject.site_to_string h.Aptget_pass.site
            | None -> "-");
            p.Profiler.note;
          ])
      prof.Profiler.profiles;
    Table.print t;
    match output with
    | Some path ->
      (* v2 document: provenance + per-load fingerprints, so the file
         stays remappable after the program changes. *)
      Hints_file.save_doc ~path (Profiler.to_doc ~options prof);
      Printf.printf "wrote %d hint(s) to %s\n" (List.length prof.Profiler.hints) path
    | None -> ()
  in
  let output_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Save the hints to a file")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Collect and analyse an LBR/PEBS profile for a workload")
    Term.(const profile $ workload_arg $ output_flag $ faults_term $ obs_term $ engine_term)

let show_ir_cmd =
  let show w inject =
    let inst = w.Workload.build () in
    if inject then begin
      let prof = Pipeline.profile w in
      let r = Aptget_pass.run inst.Workload.func ~hints:prof.Profiler.hints in
      Printf.printf "%s\n" (Printer.func_to_string inst.Workload.func);
      List.iter
        (fun (i : Inject.injected) ->
          Printf.printf
            "; injected prefetch for load PC %d: distance %d, %s site, %d \
             cloned instructions\n"
            i.Inject.spec.Inject.load_pc i.Inject.spec.Inject.distance
            (Inject.site_to_string i.Inject.spec.Inject.site)
            i.Inject.cloned_instrs)
        r.Aptget_pass.injected
    end
    else Printf.printf "%s\n" (Printer.func_to_string inst.Workload.func)
  in
  let inject_flag =
    Arg.(value & flag & info [ "inject" ] ~doc:"Show the IR after APT-GET injection")
  in
  Cmd.v (Cmd.info "show-ir" ~doc:"Print a workload's kernel IR")
    Term.(const show $ workload_arg $ inject_flag)

let list_cmd =
  let list () =
    let t =
      Table.create ~title:"workloads" ~header:[ "name"; "app"; "input"; "description" ]
    in
    List.iter
      (fun w ->
        Table.add_row t
          [ w.Workload.name; w.Workload.app; w.Workload.input; w.Workload.description ])
      Suite.extended;
    Table.print t;
    let e = Table.create ~title:"experiments" ~header:[ "id"; "title" ] in
    List.iter
      (fun (x : Registry.experiment) ->
        Table.add_row e [ x.Registry.id; x.Registry.title ])
      Registry.all;
    Table.print e
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and experiments")
    Term.(const list $ const ())

let experiments_cmd =
  let run ids quick () () () =
    let lab = Lab.create ~quick () in
    let exps =
      match ids with
      | [] -> Registry.all
      | ids ->
        List.filter_map
          (fun id ->
            match Registry.find id with
            | Some e -> Some e
            | None ->
              Printf.eprintf "unknown experiment: %s\n" id;
              exit 2)
          ids
    in
    List.iter (Registry.run_and_print lab) exps
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced workload sizes")
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ ids $ quick $ jobs_term $ obs_term $ engine_term)

let campaign_cmd =
  let run workloads store trials retries threshold cooldown backoff_base
      max_cycles max_steps crash_after_write crash_torn crash_at_cycle ()
      () () =
    int_min "trials" 1 trials;
    int_min "retries" 0 retries;
    int_min "breaker-threshold" 1 threshold;
    int_min "breaker-cooldown" 0 cooldown;
    float_min "backoff-base" 1.0 backoff_base;
    int_min "max-cycles" 0 max_cycles;
    int_min "max-steps" 0 max_steps;
    int_min_opt "crash-after-write" 1 crash_after_write;
    int_min_opt "crash-at-cycle" 1 crash_at_cycle;
    if crash_torn && crash_after_write = None then
      die "--crash-torn requires --crash-after-write";
    let crash =
      match (crash_after_write, crash_at_cycle) with
      | Some _, Some _ ->
        die "--crash-after-write and --crash-at-cycle are mutually exclusive"
      | Some k, None ->
        Some
          (Crash.after_writes
             ~mode:(if crash_torn then Crash.Torn else Crash.Clean)
             k)
      | None, Some c -> Some (Crash.at_cycle c)
      | None, None -> None
    in
    let watchdog =
      (* The flags tighten every stage uniformly; 0 keeps that
         dimension at its default. *)
      let tighten (b : Watchdog.budget) =
        {
          Watchdog.max_cycles =
            (if max_cycles > 0 then max_cycles else b.Watchdog.max_cycles);
          max_steps =
            (if max_steps > 0 then max_steps else b.Watchdog.max_steps);
        }
      in
      {
        Watchdog.profile_budget = tighten Watchdog.default.Watchdog.profile_budget;
        inject_budget = Watchdog.default.Watchdog.inject_budget;
        measure_budget = tighten Watchdog.default.Watchdog.measure_budget;
      }
    in
    let config =
      {
        Campaign.default_config with
        Campaign.max_retries = retries;
        breaker_threshold = threshold;
        breaker_cooldown = cooldown;
        backoff_base;
        watchdog;
      }
    in
    let ws = match workloads with [] -> Suite.default | ws -> ws in
    let plan = Campaign.plan ~trials_per_workload:trials ws in
    Printf.printf "campaign: %d trial(s) over %d workload(s), store %s\n\n"
      (List.length plan) (List.length ws) store;
    match Campaign.run ~config ?crash ~store plan with
    | exception Crash.Crashed why ->
      Printf.eprintf
        "campaign killed by the injected crash plan (%s); the journal at %s \
         is resumable\n"
        why store;
      exit 3
    | report ->
      let rec_ = report.Campaign.c_store_recovery in
      if rec_.Journal.dropped > 0 then
        Printf.printf
          "store recovery: salvaged %d checkpoint(s), dropped %d corrupt \
           line(s)%s\n"
          (List.length rec_.Journal.records)
          rec_.Journal.dropped
          (match rec_.Journal.first_error with
          | Some (lineno, why) ->
            Printf.sprintf " (first at line %d: %s)" lineno why
          | None -> "")
      else if rec_.Journal.records <> [] then
        Printf.printf "store recovery: %d clean checkpoint(s) found\n"
          (List.length rec_.Journal.records);
      let t =
        Table.create ~title:"campaign trials"
          ~header:[ "trial"; "status"; "attempts"; "backoff" ]
      in
      List.iter
        (fun (r : Campaign.trial_result) ->
          Table.add_row t
            [
              r.Campaign.tr_id;
              Campaign.status_to_string r.Campaign.tr_status;
              string_of_int r.Campaign.tr_attempts;
              Printf.sprintf "%.1f" r.Campaign.tr_backoff;
            ])
        report.Campaign.c_results;
      Table.print t;
      Printf.printf
        "summary: %d completed, %d resumed, %d retried, %d failed, %d \
         skipped\n"
        report.Campaign.c_completed report.Campaign.c_resumed
        report.Campaign.c_retried report.Campaign.c_failed
        report.Campaign.c_skipped;
      List.iter
        (fun (w, n) ->
          Printf.printf "circuit breaker for %s opened %d time(s)\n" w n)
        report.Campaign.c_breakers_opened;
      exit (if Campaign.ok report then 0 else 1)
  in
  let workloads_arg =
    Arg.(value & pos_all workload_conv [] & info [] ~docv:"WORKLOAD")
  in
  let store_flag =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Checkpoint journal. Created if missing; a campaign re-run \
             against an existing journal resumes, skipping trials already \
             checkpointed as ok.")
  in
  let int_flag name default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let trials_flag = int_flag "trials" 1 "Trials per workload." in
  let retries_flag =
    int_flag "retries" Campaign.default_config.Campaign.max_retries
      "Extra attempts per failing trial."
  in
  let threshold_flag =
    int_flag "breaker-threshold"
      Campaign.default_config.Campaign.breaker_threshold
      "Consecutive failures that open a workload's circuit breaker."
  in
  let cooldown_flag =
    int_flag "breaker-cooldown"
      Campaign.default_config.Campaign.breaker_cooldown
      "Trials skipped while a breaker is open, before the half-open probe."
  in
  let backoff_flag =
    Arg.(
      value
      & opt float Campaign.default_config.Campaign.backoff_base
      & info [ "backoff-base" ] ~docv:"BASE"
          ~doc:
            "Retry backoff base: attempt n accrues BASE^(n-1), capped at \
             the PMU ladder's maximum.")
  in
  let max_cycles_flag =
    int_flag "max-cycles" 0
      "Watchdog deadline in simulated cycles for the profile and measure \
       stages (0 = default budget)."
  in
  let max_steps_flag =
    int_flag "max-steps" 0
      "Watchdog kernel-step budget for the profile and measure stages (0 = \
       default budget)."
  in
  let crash_write_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after-write" ] ~docv:"K"
          ~doc:
            "Deterministic crash injection: kill the process at the K-th \
             checkpoint store write (testing only).")
  in
  let crash_torn_flag =
    Arg.(
      value & flag
      & info [ "crash-torn" ]
          ~doc:
            "With $(b,--crash-after-write), tear the fatal write so only a \
             prefix of its bytes lands.")
  in
  let crash_cycle_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-at-cycle" ] ~docv:"C"
          ~doc:
            "Deterministic crash injection: kill the process when a \
             supervised simulation reaches cycle C (testing only).")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a supervised, crash-safe profiling campaign with \
          checkpoint/resume"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 — every trial completed (or resumed as completed).";
           `P
             "1 — degraded: at least one trial failed, was skipped by an \
              open circuit breaker, or a breaker opened.";
           `P "2 — bad command-line flags.";
           `P
             "3 — crashed: the injected crash plan fired; the journal is \
              resumable with the same command.";
         ])
    Term.(
      const run $ workloads_arg $ store_flag $ trials_flag $ retries_flag
      $ threshold_flag $ cooldown_flag $ backoff_flag $ max_cycles_flag
      $ max_steps_flag $ crash_write_flag $ crash_torn_flag
      $ crash_cycle_flag $ jobs_term $ obs_term $ engine_term)

let read_file_or_stdin path =
  if path = "-" then In_channel.input_all stdin
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> text
    | exception Sys_error e -> die "cannot read %s: %s" path e

(* Map a single response's status onto the process exit vocabulary. *)
let exit_of_status = function
  | Wire.Ok_ -> Exit_code.Ok_
  | Wire.Overloaded -> Exit_code.Overloaded
  | Wire.Timed_out | Wire.Malformed | Wire.Rejected | Wire.Failed
  | Wire.Aborted ->
    Exit_code.Degraded

(* --net-* flags: every knob of the seeded network-fault layer, shared
   by the socket daemon (server-side send faults) and loadgen / socket
   client mode (client-side faults). All rates default to zero — the
   transport is bit-identical with faults off. *)
let net_faults_term =
  let rate name doc =
    Arg.(value & opt float 0. & info [ name ] ~docv:"RATE" ~doc)
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "net-seed" ] ~docv:"N"
          ~doc:
            "Seed for the injected network-fault schedule (per-connection \
             streams are derived from it deterministically).")
  in
  let disconnect =
    rate "net-disconnect"
      "Chance a frame's transmission is cut after a uniformly chosen \
       prefix of its bytes (mid-flight disconnect)."
  in
  let short = rate "net-short-write" "Chance a frame is dribbled out in short chunks." in
  let delay = rate "net-delay" "Chance a frame's delivery is delayed." in
  let max_delay =
    Arg.(
      value & opt float 0.02
      & info [ "net-max-delay" ] ~docv:"SECONDS"
          ~doc:"Upper bound on an injected delivery delay.")
  in
  let duplicate = rate "net-duplicate" "Chance a frame is transmitted twice." in
  let build seed disconnect_rate short_write_rate delay_rate max_delay
      duplicate_rate =
    let c =
      {
        Net_faults.seed;
        disconnect_rate;
        short_write_rate;
        delay_rate;
        max_delay;
        duplicate_rate;
      }
    in
    match Net_faults.validate c with
    | Ok () -> c
    | Error e -> die "bad --net-* value: %s" e
  in
  Term.(
    const build $ seed $ disconnect $ short $ delay $ max_delay $ duplicate)

let addr_of_flag s =
  match Transport.addr_of_string s with
  | Ok a -> a
  | Error e -> die "%s" e

let serve_cmd =
  let serve spool capacity deadline threshold cooldown no_cache submits
      shutdown watch health once response_id show poll max_drains
      crash_after_write crash_torn listen connect max_conns read_deadline
      max_batches net_faults () () () =
    int_min "capacity" 1 capacity;
    int_min "breaker-threshold" 1 threshold;
    int_min "breaker-cooldown" 0 cooldown;
    int_min_opt "deadline-cycles" 1 deadline;
    int_min_opt "crash-after-write" 1 crash_after_write;
    if crash_torn && crash_after_write = None then
      die "--crash-torn requires --crash-after-write";
    float_min ~exclusive:true "poll" 0. poll;
    int_min "max-conns" 1 max_conns;
    int_min_opt "max-batches" 1 max_batches;
    float_min ~exclusive:true "read-deadline" 0. read_deadline;
    if listen <> None && connect <> None then
      die "--listen and --connect are mutually exclusive";
    if connect <> None && submits = [] && not shutdown then
      die "--connect needs --submit or --shutdown";
    let config =
      {
        (Server.default_config ~spool) with
        Server.capacity;
        default_deadline = deadline;
        breaker = { Breaker.threshold; cooldown };
        cache = not no_cache;
      }
    in
    let with_deadline (req : Wire.request) =
      match req.Wire.deadline_cycles with
      | None -> { req with Wire.deadline_cycles = deadline }
      | Some _ -> req
    in
    if health then begin
      (match Health.read ~spool with
      | Ok i ->
        Printf.printf "state=%s processed=%d resynced=%d%s%s%s\n"
          (Health.state_to_string i.Health.i_state)
          i.Health.i_processed i.Health.i_resynced
          (String.concat ""
             (List.map
                (fun (k, v) -> Printf.sprintf " salvage.%s=%d" k v)
                i.Health.i_salvage))
          (if i.Health.i_beat > 0 then
             Printf.sprintf " beat=%d" i.Health.i_beat
           else "")
          (match i.Health.i_pid with
          | Some p -> Printf.sprintf " pid=%d" p
          | None -> "")
      | Error e -> Printf.eprintf "aptget: %s\n" e);
      Exit_code.exit (Health.probe ~spool)
    end
    else if submits <> [] || shutdown then begin
      match connect with
      | None ->
        (* Client mode: frame and append request payloads to the spool. *)
        List.iter
          (fun file ->
            let text = read_file_or_stdin file in
            match Wire.body_of_string text with
            | Error e -> die "bad request in %s: %s" file e
            | Ok body -> Server.submit ~spool body)
          submits;
        if shutdown then Server.submit ~spool Wire.Shutdown;
        exit 0
      | Some addr_s ->
        (* Socket client mode: each request is one retrying idempotent
           call; bodies print in submit order, worst status wins. *)
        let addr = addr_of_flag addr_s in
        let cc =
          {
            (Client.default_config (Client.Socket addr)) with
            Client.faults = net_faults;
            seed = net_faults.Net_faults.seed;
          }
        in
        let worst = ref Exit_code.Ok_ in
        List.iteri
          (fun k file ->
            let text = read_file_or_stdin file in
            match Wire.body_of_string text with
            | Error e -> die "bad request in %s: %s" file e
            | Ok Wire.Shutdown -> die "use --shutdown for the shutdown marker"
            | Ok (Wire.Run req) -> (
              let client = Client.create ~stream:k cc in
              match Client.call client req with
              | Error e ->
                Printf.eprintf "aptget: %s: %s\n" req.Wire.req_id e;
                worst := Exit_code.worst !worst Exit_code.Crashed
              | Ok o ->
                print_string o.Client.response.Wire.rsp_body;
                if o.Client.response.Wire.rsp_reason <> "" then
                  Printf.eprintf "aptget: %s: %s\n"
                    (Wire.status_to_string o.Client.response.Wire.rsp_status)
                    o.Client.response.Wire.rsp_reason;
                worst :=
                  Exit_code.worst !worst
                    (exit_of_status o.Client.response.Wire.rsp_status)))
          submits;
        if shutdown then begin
          match Client.shutdown (Client.create (Client.default_config (Client.Socket addr))) with
          | Ok () -> ()
          | Error e ->
            Printf.eprintf "aptget: shutdown: %s\n" e;
            worst := Exit_code.worst !worst Exit_code.Degraded
        end;
        Exit_code.exit !worst
    end
    else
      match once with
      | Some file -> begin
        (* One-shot reference path: same handler, same tenant stores,
           no daemon — the byte-identity oracle for the CI smoke. *)
        let text = read_file_or_stdin file in
        match Wire.body_of_string text with
        | Error e -> die "bad request in %s: %s" file e
        | Ok Wire.Shutdown -> die "--once expects a run request"
        | Ok (Wire.Run req) -> (
          let registry =
            Tenant.registry ~root:spool ~breaker:config.Server.breaker
              ~cache:config.Server.cache ()
          in
          match Tenant.find_or_create registry req.Wire.tenant with
          | Error e -> die "%s" e
          | Ok tenant ->
            let o =
              Handler.run config.Server.handler ~tenant (with_deadline req)
            in
            print_string o.Handler.h_body;
            if o.Handler.h_reason <> "" then
              Printf.eprintf "aptget: %s: %s\n"
                (Wire.status_to_string o.Handler.h_status)
                o.Handler.h_reason;
            Exit_code.exit (exit_of_status o.Handler.h_status))
      end
      | None ->
        if show || response_id <> None then begin
          match Server.responses ~spool with
          | Error e ->
            Printf.eprintf "aptget: cannot read responses: %s\n" e;
            exit 1
          | Ok rs -> (
            match response_id with
            | Some id -> (
              let matching =
                List.filter_map
                  (function
                    | Ok r when r.Wire.rsp_id = id -> Some r
                    | Ok _ | Error _ -> None)
                  rs
              in
              match List.rev matching with
              | [] ->
                Printf.eprintf "aptget: no response for id %s\n" id;
                exit 1
              | r :: _ ->
                print_string r.Wire.rsp_body;
                if r.Wire.rsp_reason <> "" then
                  Printf.eprintf "aptget: %s: %s\n"
                    (Wire.status_to_string r.Wire.rsp_status)
                    r.Wire.rsp_reason;
                Exit_code.exit (exit_of_status r.Wire.rsp_status))
            | None ->
              List.iter
                (function
                  | Ok r ->
                    Printf.printf "%s %s %s%s\n" r.Wire.rsp_id
                      r.Wire.rsp_tenant
                      (Wire.status_to_string r.Wire.rsp_status)
                      (if r.Wire.rsp_reason <> "" then
                         " (" ^ r.Wire.rsp_reason ^ ")"
                       else "")
                  | Error e -> Printf.printf "? ? unparseable (%s)\n" e)
                rs;
              exit 0)
        end
        else begin
          (* Daemon mode: one drain batch, or --watch until shutdown. *)
          let crash =
            Option.map
              (fun k ->
                Crash.after_writes
                  ~mode:(if crash_torn then Crash.Torn else Crash.Clean)
                  k)
              crash_after_write
          in
          let srv = Server.create config in
          match
            match listen with
            | Some addr_s ->
              let sc =
                {
                  (Server.default_socket_config (addr_of_flag addr_s)) with
                  Server.sk_max_conns = max_conns;
                  sk_read_deadline = read_deadline;
                  sk_poll = poll;
                  sk_faults = net_faults;
                }
              in
              (match Server.serve_socket ?crash ?max_batches srv sc with
              | Ok r -> r
              | Error e -> die "%s" e)
            | None ->
              if watch then Server.serve ?crash ~poll ?max_drains srv
              else Server.drain ?crash srv
          with
          | exception Crash.Crashed why ->
            (* The supervisor's record of the death: health says
               stopped/crashed, the journal stays recoverable. *)
            Server.stop srv ~code:Exit_code.Crashed;
            Printf.eprintf
              "aptget: serve killed by the injected crash plan (%s); \
               restart to recover the journal\n"
              why;
            Exit_code.exit Exit_code.Crashed
          | report ->
            let code = Server.exit_code report in
            if not watch then Server.stop srv ~code;
            Printf.printf
              "serve: %d frame(s): %d ok, %d shed, %d timed-out, %d \
               rejected, %d failed, %d malformed, %d aborted, %d resumed%s%s%s%s\n"
              report.Server.s_frames report.Server.s_ok report.Server.s_shed
              report.Server.s_timed_out report.Server.s_rejected
              report.Server.s_failed report.Server.s_malformed
              report.Server.s_aborted report.Server.s_resumed
              (if report.Server.s_replayed > 0 then
                 Printf.sprintf ", %d replayed" report.Server.s_replayed
               else "")
              (if report.Server.s_torn > 0 then ", torn tail" else "")
              (if report.Server.s_resynced > 0 then
                 Printf.sprintf ", %d corrupt region(s) skipped"
                   report.Server.s_resynced
               else "")
              (if report.Server.s_drained then ", drained" else "");
            Exit_code.exit code
        end
  in
  let spool_flag =
    Arg.(
      required
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Spool directory: the daemon's request/response queues, \
             in-flight journal, health file and per-tenant stores all live \
             here.")
  in
  let capacity_flag =
    Arg.(
      value & opt int 64
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Admission bound per drain batch: the first $(docv) requests \
             are admitted in arrival order, the rest are shed with the \
             $(b,overloaded) status.")
  in
  let deadline_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-cycles" ] ~docv:"C"
          ~doc:
            "Default per-request deadline in simulated cycles, applied to \
             requests that do not carry their own.")
  in
  let threshold_flag =
    Arg.(
      value
      & opt int Breaker.default_config.Breaker.threshold
      & info [ "breaker-threshold" ] ~docv:"N"
          ~doc:"Consecutive failures that open a tenant's circuit breaker.")
  in
  let cooldown_flag =
    Arg.(
      value
      & opt int Breaker.default_config.Breaker.cooldown
      & info [ "breaker-cooldown" ] ~docv:"N"
          ~doc:
            "Requests refused while a tenant's breaker is open, before the \
             half-open probe.")
  in
  let no_cache_flag =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the per-tenant measurement caches.")
  in
  let submit_flag =
    Arg.(
      value
      & opt_all string []
      & info [ "submit" ] ~docv:"FILE"
          ~doc:
            "Client mode: frame the request document in $(docv) ($(b,-) = \
             stdin) and append it to the spool's request queue. Repeatable; \
             order is preserved.")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:
            "Client mode: append a shutdown marker; the daemon finishes \
             the batch up to the marker, rejects anything after it, and \
             exits its watch loop.")
  in
  let watch_flag =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Daemon mode: keep draining (polling the queue) until a \
             shutdown marker is processed. Without it, one drain batch \
             runs and the command exits.")
  in
  let health_flag =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Probe the daemon's published health state: exit 0 when ready, \
             draining or stopped clean; non-zero otherwise.")
  in
  let once_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "once" ] ~docv:"FILE"
          ~doc:
            "Run the request document in $(docv) ($(b,-) = stdin) directly \
             — no daemon, no queue — and print the canonical response body. \
             The daemon's $(b,ok) responses are byte-identical to this.")
  in
  let response_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "response" ] ~docv:"ID"
          ~doc:
            "Print the response body recorded for request $(docv) and exit \
             with its status code.")
  in
  let show_responses_flag =
    Arg.(
      value & flag
      & info [ "show-responses" ]
          ~doc:"List every recorded response as $(i,id tenant status).")
  in
  let poll_flag =
    Arg.(
      value & opt float 0.05
      & info [ "poll" ] ~docv:"SECONDS"
          ~doc:"Queue poll interval for $(b,--watch).")
  in
  let max_drains_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-drains" ] ~docv:"N"
          ~doc:"Stop $(b,--watch) after $(docv) drain batches (testing).")
  in
  let crash_write_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after-write" ] ~docv:"K"
          ~doc:
            "Deterministic crash injection: kill the daemon at the K-th \
             in-flight journal write (testing only; forces serial \
             execution).")
  in
  let crash_torn_flag =
    Arg.(
      value & flag
      & info [ "crash-torn" ]
          ~doc:
            "With $(b,--crash-after-write), tear the fatal write so only a \
             prefix of its bytes lands.")
  in
  let listen_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Daemon mode over a live socket instead of the spool queue: \
             listen on $(docv) ($(b,unix:PATH) or $(b,tcp:)[$(i,HOST):]\
             $(i,PORT)) and serve framed requests until a shutdown request \
             arrives. The spool directory still holds the journal, the \
             durable response record and the health file.")
  in
  let connect_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Client mode over a socket: send each $(b,--submit) request to \
             the daemon at $(docv) with idempotent retries and print the \
             response bodies (the request id is the idempotency key).")
  in
  let max_conns_flag =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Connection cap for $(b,--listen): connects over the cap are \
             shed with an $(b,overloaded) notice and closed.")
  in
  let read_deadline_flag =
    Arg.(
      value & opt float 2.0
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Seconds a $(b,--listen) connection may sit without completing \
             a frame before it is shed (the slow-loris guard).")
  in
  let max_batches_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-batches" ] ~docv:"N"
          ~doc:"Stop $(b,--listen) after $(docv) batches (testing).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Prefetch-advisory daemon: admission control, deadlines, tenant \
          isolation"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "A supervised batch daemon over a file-spool queue. Clients \
              append framed request documents with $(b,--submit); the \
              daemon drains the queue (one batch per drain, admission \
              capped at $(b,--capacity)), runs each request's guarded \
              pipeline inside its tenant's namespace — private quarantine \
              store, measurement cache and circuit breaker — under a \
              per-request watchdog deadline, and appends framed responses. \
              In-flight requests are journaled: after a crash, finished \
              work is re-served from the tenant stores and half-done work \
              is cleanly aborted.";
           `S Manpage.s_exit_status;
           `P "0 — every request in the batch succeeded.";
           `P
             "1 — degraded: some request failed, timed out, was rejected, \
              malformed or aborted.";
           `P "2 — bad command-line flags.";
           `P "3 — crashed: the injected crash plan fired.";
           `P "4 — overloaded: admission control shed at least one request.";
         ])
    Term.(
      const serve $ spool_flag $ capacity_flag $ deadline_flag
      $ threshold_flag $ cooldown_flag $ no_cache_flag $ submit_flag
      $ shutdown_flag $ watch_flag $ health_flag $ once_flag $ response_flag
      $ show_responses_flag $ poll_flag $ max_drains_flag $ crash_write_flag
      $ crash_torn_flag $ listen_flag $ connect_flag $ max_conns_flag
      $ read_deadline_flag $ max_batches_flag $ net_faults_term $ jobs_term
      $ obs_term $ engine_term)

let loadgen_cmd =
  let loadgen connect spool rate duration requests tenants workloads attempts
      timeout prefix dump net_faults () () =
    float_min ~exclusive:true "rate" 0. rate;
    float_min "duration" 0. duration;
    int_min_opt "requests" 1 requests;
    int_min "attempts" 1 attempts;
    float_min ~exclusive:true "timeout" 0. timeout;
    (match Wire.valid_id prefix with
    | Ok () -> ()
    | Error e -> die "bad --prefix: %s" e);
    let target =
      match (connect, spool) with
      | Some a, None -> Client.Socket (addr_of_flag a)
      | None, Some dir -> Client.Spool dir
      | Some _, Some _ -> die "--connect and --spool are mutually exclusive"
      | None, None -> die "loadgen needs --connect ADDR or --spool DIR"
    in
    let csv flag s =
      match
        List.filter (fun x -> x <> "") (String.split_on_char ',' s)
      with
      | [] -> die "empty --%s" flag
      | xs -> Array.of_list xs
    in
    let tenants = csv "tenants" tenants in
    let workloads = csv "workloads" workloads in
    let n =
      match requests with
      | Some n -> n
      | None -> max 1 (int_of_float (rate *. duration))
    in
    Option.iter Transport.mkdir_p dump;
    let nt = Array.length tenants in
    let nw = Array.length workloads in
    let mk_req k =
      {
        Wire.req_id = Printf.sprintf "%s-%04d" prefix k;
        tenant = tenants.(k mod nt);
        workload = workloads.(k / nt mod nw);
        deadline_cycles = None;
        guard_floor = None;
        remap = true;
        hints = None;
        program = None;
      }
    in
    let cc =
      {
        (Client.default_config target) with
        Client.attempts;
        timeout;
        faults = net_faults;
        seed = net_faults.Net_faults.seed;
      }
    in
    (* Open-loop: request k fires at t0 + k/rate regardless of how its
       predecessors fared, so measured latency includes any queueing
       the daemon imposes (no coordinated omission). Workers are
       domains; each request gets its own client with its own fault
       and jitter streams. *)
    let t0 = Unix.gettimeofday () +. 0.05 in
    let run_one k =
      let sched = t0 +. (float_of_int k /. rate) in
      Transport.sleep (sched -. Unix.gettimeofday ());
      let req = mk_req k in
      let client = Client.create ~stream:k cc in
      let res = Client.call client req in
      let latency = Unix.gettimeofday () -. sched in
      (req, res, latency)
    in
    let results = Aptget_util.Pool.run run_one (List.init n Fun.id) in
    let ok = ref 0 and shed = ref 0 and degraded = ref 0 and lost = ref 0 in
    let retries = ref 0 in
    let latencies = ref [] in
    let write_file path text =
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc text)
    in
    List.iter
      (fun (req, res, latency) ->
        latencies := (latency *. 1000.) :: !latencies;
        Metrics.observe "loadgen.latency_ms" (latency *. 1000.);
        let dump_req status body =
          match dump with
          | None -> ()
          | Some dir ->
            let base = Filename.concat dir req.Wire.req_id in
            write_file (base ^ ".req") (Wire.request_to_string req);
            write_file (base ^ ".status") (status ^ "\n");
            Option.iter (fun b -> write_file (base ^ ".body") b) body
        in
        match res with
        | Error e ->
          incr lost;
          Metrics.incr "loadgen.lost";
          dump_req "lost" None;
          Printf.eprintf "aptget: %s: %s\n" req.Wire.req_id e
        | Ok o ->
          retries := !retries + o.Client.attempts - 1;
          if o.Client.attempts > 1 then
            Metrics.incr ~by:(o.Client.attempts - 1) "loadgen.retries";
          let st = o.Client.response.Wire.rsp_status in
          Metrics.incr ("loadgen." ^ Wire.status_to_string st);
          dump_req
            (Wire.status_to_string st)
            (Some o.Client.response.Wire.rsp_body);
          (match st with
          | Wire.Ok_ -> incr ok
          | Wire.Overloaded -> incr shed
          | Wire.Timed_out | Wire.Malformed | Wire.Rejected | Wire.Failed
          | Wire.Aborted ->
            incr degraded))
      results;
    Printf.printf
      "loadgen: %d request(s) at %g req/s: %d ok, %d shed, %d degraded, %d \
       lost; %d retr%s\n"
      n rate !ok !shed !degraded !lost !retries
      (if !retries = 1 then "y" else "ies");
    (match !latencies with
    | [] -> ()
    | ls ->
      let xs = Array.of_list ls in
      let p q = Stats.percentile xs q in
      Printf.printf "loadgen: latency-ms p50=%.1f p90=%.1f p99=%.1f max=%.1f\n"
        (p 50.) (p 90.) (p 99.) (p 100.));
    (* Lost requests outrank everything: an unanswered request is the
       one outcome the robustness contract forbids, so it maps to the
       crashed rung CI greps for. *)
    Exit_code.exit
      (if !lost > 0 then Exit_code.Crashed
       else if !shed > 0 then Exit_code.Overloaded
       else if !degraded > 0 then Exit_code.Degraded
       else Exit_code.Ok_)
  in
  let connect_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Generate load against the socket daemon at $(docv) \
             ($(b,unix:PATH) or $(b,tcp:)[$(i,HOST):]$(i,PORT)).")
  in
  let spool_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:"Generate load against the file-spool transport in $(docv).")
  in
  let rate_flag =
    Arg.(
      value & opt float 50.
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Sustained open-loop request rate (req/s): request $(i,k) \
             fires at $(i,t0 + k/R) regardless of earlier outcomes.")
  in
  let duration_flag =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Length of the run (total requests = rate x duration).")
  in
  let requests_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:"Send exactly $(docv) requests (overrides --duration).")
  in
  let tenants_flag =
    Arg.(
      value & opt string "acme,globex"
      & info [ "tenants" ] ~docv:"CSV"
          ~doc:"Tenants to round-robin requests across.")
  in
  let workloads_flag =
    Arg.(
      value
      & opt string "randAcc,HJ2-NPO,BFS-80K8"
      & info [ "workloads" ] ~docv:"CSV"
          ~doc:"Workloads to round-robin requests across.")
  in
  let attempts_flag =
    Arg.(
      value & opt int 5
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Max attempts per request (transport failures retry with \
             capped exponential backoff + seeded jitter; the request id is \
             the idempotency key).")
  in
  let timeout_flag =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-attempt wait for a response.")
  in
  let prefix_flag =
    Arg.(
      value & opt string "lg"
      & info [ "prefix" ] ~docv:"STR"
          ~doc:"Request-id prefix (ids are $(docv)-0000, $(docv)-0001, ...).")
  in
  let dump_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"DIR"
          ~doc:
            "Write each request document ($(i,id).req), terminal status \
             ($(i,id).status) and response body ($(i,id).body) to $(docv) — \
             the CI soak diffs the bodies against the $(b,serve --once) \
             oracle.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Sustained open-loop load generator for the serve daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Drives the serve daemon — over the live socket transport or \
              the file spool — at a sustained open-loop request rate with a \
              retrying idempotent client per request, optionally under \
              seeded client-side network faults ($(b,--net-*)). Records \
              latency, shed, retry and loss counts (exported through \
              $(b,--metrics)) and exits on the unified ladder.";
           `S Manpage.s_exit_status;
           `P "0 — every request was answered $(b,ok).";
           `P
             "1 — degraded: some request was answered with a non-ok, \
              non-overloaded status.";
           `P "2 — bad command-line flags.";
           `P
             "3 — lost: some request was never answered (exhausted its \
              retry budget) — the outcome the robustness contract forbids.";
           `P "4 — overloaded: some request was shed by admission control.";
         ])
    Term.(
      const loadgen $ connect_flag $ spool_flag $ rate_flag $ duration_flag
      $ requests_flag $ tenants_flag $ workloads_flag $ attempts_flag
      $ timeout_flag $ prefix_flag $ dump_flag $ net_faults_term $ jobs_term
      $ obs_term)

let quarantine_cmd =
  let quarantine path compact () =
    let q = Quarantine.create ~path () in
    let entries = Quarantine.entries q in
    if compact then begin
      (* Keep an entry only if its workload is still in the suite AND
         its program hash matches the workload's current kernel — a
         stale fingerprint means the quarantined verdict is about a
         program that no longer exists. *)
      let fp_cache = Hashtbl.create 8 in
      let current_fp name =
        match Hashtbl.find_opt fp_cache name with
        | Some fp -> fp
        | None ->
          let fp =
            Option.map
              (fun w ->
                (Aptget_ir.Fingerprint.fingerprint
                   (w.Workload.build ()).Workload.func)
                  .Aptget_ir.Fingerprint.program)
              (Suite.find name)
          in
          Hashtbl.add fp_cache name fp;
          fp
      in
      let keep (e : Quarantine.entry) =
        match current_fp e.Quarantine.q_workload with
        | Some fp -> fp = e.Quarantine.q_program
        | None -> false
      in
      let dropped = Quarantine.compact q ~keep in
      Printf.printf "quarantine %s: %d entry(ies), dropped %d stale\n" path
        (List.length entries - dropped)
        dropped
    end
    else begin
      Printf.printf "quarantine %s: %d entry(ies)\n" path (List.length entries);
      List.iter
        (fun (e : Quarantine.entry) ->
          Printf.printf "  %s program=%s hints=%s measured %s\n"
            e.Quarantine.q_workload
            (Aptget_ir.Fingerprint.hex e.Quarantine.q_program)
            (Aptget_ir.Fingerprint.hex e.Quarantine.q_hints)
            (Table.fmt_speedup e.Quarantine.q_speedup))
        entries
    end
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let compact_flag =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Drop entries whose program fingerprint no longer matches any \
             suite workload's current kernel. Atomic (temp file + rename) \
             and idempotent.")
  in
  Cmd.v
    (Cmd.info "quarantine" ~doc:"Inspect or compact a quarantine store")
    Term.(const quarantine $ path_arg $ compact_flag $ obs_term)

let obs_report_cmd =
  let report path metrics =
    match Aptget_obs.Trace.load ~path with
    | Error e ->
      Printf.eprintf "aptget: cannot read trace %s: %s\n" path e;
      exit 1
    | Ok spans -> (
      print_string (Aptget_obs.Report.render spans);
      match metrics with
      | None -> ()
      | Some mpath -> (
        match Aptget_store.Atomic_file.read ~path:mpath with
        | Error e ->
          Printf.eprintf "aptget: cannot read metrics %s: %s\n" mpath e;
          exit 1
        | Ok text -> Printf.printf "\nmetrics (%s):\n%s" mpath text))
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE")
  in
  let metrics_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"METRICS"
          ~doc:
            "Optional metrics sidecar written by $(b,--metrics) in the same \
             run, printed after the span table (for instance the \
             $(b,mem.collections) and $(b,mem.buffer_bytes) counters).")
  in
  Cmd.v
    (Cmd.info "obs-report"
       ~doc:
         "Render a per-stage time breakdown from an NDJSON trace written by \
          $(b,--trace), and optionally the run's metrics sidecar")
    Term.(const report $ path_arg $ metrics_arg)

let main =
  Cmd.group
    (Cmd.info "aptget" ~version:"1.0.0"
       ~doc:
         "Profile-guided timely software prefetching (EuroSys'22 \
          reproduction)")
    [
      run_cmd;
      profile_cmd;
      show_ir_cmd;
      list_cmd;
      experiments_cmd;
      campaign_cmd;
      serve_cmd;
      loadgen_cmd;
      quarantine_cmd;
      obs_report_cmd;
    ]

let () =
  let code = Cmd.eval main in
  (* Fold cmdliner's own cli-error code into the unified vocabulary:
     2 = usage, everywhere. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
