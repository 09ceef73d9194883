module Pipeline = Aptget_core.Pipeline
module Watchdog = Aptget_core.Watchdog
module Breaker = Aptget_core.Breaker
module Quarantine = Aptget_core.Quarantine
module Meas_cache = Aptget_core.Meas_cache
module Machine = Aptget_machine.Machine
module Profiler = Aptget_profile.Profiler
module Hints_file = Aptget_profile.Hints_file
module Remap = Aptget_profile.Remap
module Aptget_pass = Aptget_passes.Aptget_pass
module Workload = Aptget_workloads.Workload
module Stats = Aptget_util.Stats
module Trace = Aptget_obs.Trace
module Metrics = Aptget_obs.Metrics
module Sampler = Aptget_pmu.Sampler

type config = {
  drift : Drift.config;
  window_cycles : int;
  floor : float;
  watchdog : Watchdog.config;
  breaker : Breaker.config;
  options : Profiler.options;
}

let default_config =
  {
    drift = Drift.default_config;
    window_cycles = 100_000;
    floor = Pipeline.default_floor;
    watchdog = Watchdog.default;
    breaker = Breaker.default_config;
    options = Profiler.default_options;
  }

(* The plan is what the loop currently stands behind for the next
   epoch. [Hinted] and [Pinned] both carry the hints-file document they
   came from, so a later retune can re-admit it through the remap path;
   [Pinned] holds the hints without applying them (the injection pass
   sees them fully vetoed — distinct from [Aj_static], whose empty list
   takes the pass's Algorithm-2 static fallback). *)
type plan =
  | Hinted of Hints_file.doc * Aptget_pass.hint list
  | Aj_static
  | Pinned of Hints_file.doc * Aptget_pass.hint list

let plan_to_string = function
  | Hinted (_, hs) -> Printf.sprintf "hints:%d" (List.length hs)
  | Aj_static -> "aj"
  | Pinned (_, hs) -> Printf.sprintf "pinned:%d" (List.length hs)

type action =
  | No_drift
  | Dwell_suppressed
  | Breaker_refused
  | No_candidate
  | Retuned of float
  | Remapped of float
  | Aj_fallback of float
  | Pinned_baseline of float
  | Retune_timed_out

let action_to_string = function
  | No_drift -> "none"
  | Dwell_suppressed -> "dwell-suppressed"
  | Breaker_refused -> "breaker-refused"
  | No_candidate -> "no-candidate"
  | Retuned s -> Printf.sprintf "retuned:%.4f" s
  | Remapped s -> Printf.sprintf "remapped:%.4f" s
  | Aj_fallback s -> Printf.sprintf "aj:%.4f" s
  | Pinned_baseline s -> Printf.sprintf "pinned:%.4f" s
  | Retune_timed_out -> "timed-out"

(* Degradation-ladder rung of an executed retune, top first. *)
let rung_of_action = function
  | Retuned _ -> Some (0, "retuned")
  | Remapped _ -> Some (1, "remapped")
  | Aj_fallback _ -> Some (2, "aj")
  | Pinned_baseline _ -> Some (3, "pinned")
  | No_drift | Dwell_suppressed | Breaker_refused | No_candidate
  | Retune_timed_out ->
      None

let retune_ok = function Retuned _ | Remapped _ -> true | _ -> false

type epoch = {
  e_measurement : Pipeline.measurement;
  e_windows : Machine.window_report list;  (** in execution order *)
  e_refit : Profiler.t option;
  e_hints_dropped : (Aptget_pass.hint * string) list;
}

(* One supervised hinted run with the sampler re-profiling it and
   counter windows collected: the loop's epoch. Sampling and windows do
   not perturb the run, so without a veto it is the run of its
   validated hints and enters [memos] as such: a retune's guard
   candidate equal to them is not simulated again. *)
let epoch cfg ~memos ~sampler ?veto ~hints (w : Workload.t) =
  Trace.with_span ~name:"pipeline.run-adaptive"
    ~attrs:[ ("workload", w.Workload.name) ]
  @@ fun () ->
  Sampler.reset sampler;
  let windows = ref [] in
  let used = ref [] and dropped = ref [] in
  (* An empty (or fully stale) hint list takes the injection pass's
     Algorithm-2 static fallback — the bottom rung of the degradation
     ladder runs A&J's fixed distance, not an unprefetched kernel. *)
  let transform (inst : Workload.instance) =
    let u, d = Profiler.validate_hints inst.Workload.func hints in
    used := u;
    dropped := d;
    Pipeline.apply_hints ?veto ~hints:u inst
  in
  let config = cfg.options.Profiler.machine in
  let r =
    Pipeline.measure ~config ~watchdog:cfg.watchdog ~sampler
      ~window_cycles:cfg.window_cycles
      ~on_window:(fun wr -> windows := wr :: !windows)
      ~transform w
  in
  if Option.is_none veto then begin
    let k =
      Meas_cache.key ~workload:w.Workload.name ~program:(Meas_cache.program w)
        ~config
        (Meas_cache.Hints { hints = !used; cse = false })
    in
    List.iter (fun memo -> Meas_cache.add memo k r.Pipeline.tenant) memos
  end;
  {
    e_measurement = r.Pipeline.tenant;
    e_windows = List.rev !windows;
    (* The re-fit analyses the *rewritten* kernel the sampler just
       observed; its hint PCs must travel through the remap path to
       reach a fresh build. *)
    e_refit = Pipeline.refit ~options:cfg.options ~sampler r;
    e_hints_dropped = !dropped;
  }

type segment_result = {
  s_index : int;  (** 1-based position in the segment list *)
  s_workload : string;
  s_plan : string;  (** plan the epoch ran under, rendered *)
  s_epoch : epoch;
  s_eval : Drift.epoch_eval;
  s_verdict : Drift.verdict;
  s_action : action;
  s_cycles : int;
  s_retune_cycles : int;
}

type report = {
  a_name : string;
  a_segments : segment_result list;
  a_retunes : int;
  a_suppressed_dwell : int;
  a_suppressed_breaker : int;
  a_ladder : (string * int) list;
  a_app_cycles : int;
  a_retune_cycles : int;
  a_final_plan : string;
  a_log : string list;
}

let iter_median (p : Profiler.t) =
  match p.Profiler.profiles with
  | lp :: _ when Array.length lp.Profiler.iteration_times > 0 ->
      Some (Stats.median lp.Profiler.iteration_times)
  | _ -> None

let reference_of_profile (p : Profiler.t) =
  {
    Drift.ref_mpki = Machine.mpki p.Profiler.baseline;
    ref_iter = iter_median p;
  }

let plan_of_profile ~options (p : Profiler.t) =
  match p.Profiler.hints with
  | [] -> Aj_static
  | hs -> Hinted (Profiler.to_doc ~options p, hs)

(* One retune: re-solve the model from the live re-fit and walk the
   degradation ladder through the regression guard, whose runs go
   through [memo]. Returns the new plan, the action taken, and the
   measurement the adopted plan stands behind. *)
let retune cfg ~memo ?quarantine ~plan ~refit w =
  Trace.with_span ~name:"adapt.retune"
    ~attrs:[ ("workload", w.Workload.name) ]
  @@ fun () ->
  let guarded doc =
    Pipeline.run_guarded ~memo ~config:cfg.options.Profiler.machine
      ~floor:cfg.floor ?quarantine ~remap:true ~watchdog:cfg.watchdog ~doc w
  in
  let last_doc =
    match plan with Hinted (d, _) | Pinned (d, _) -> Some d | Aj_static -> None
  in
  let refit_doc =
    match refit with
    | Some (p : Profiler.t) when p.Profiler.hints <> [] ->
        Some (Profiler.to_doc ~options:cfg.options p)
    | _ -> None
  in
  let descend (g : Pipeline.guarded) ~doc =
    let fallback =
      match g.Pipeline.g_outcome with
      | Pipeline.Quarantined { fallback; _ } | Pipeline.Known_bad { fallback; _ }
        ->
          fallback
      | Pipeline.Admitted -> assert false
    in
    match fallback with
    | Pipeline.Aj_static -> (Aj_static, Aj_fallback g.Pipeline.g_speedup)
    | Pipeline.Pinned_baseline ->
        let hold = Option.value last_doc ~default:doc in
        ( Pinned (hold, Hints_file.hints_of_doc hold),
          Pinned_baseline g.Pipeline.g_speedup )
  in
  try
    let attempts =
      (match refit_doc with Some d -> [ (`Refit, d) ] | None -> [])
      @ match last_doc with Some d -> [ (`Last, d) ] | None -> []
    in
    match attempts with
    | [] -> (plan, No_candidate, None)
    | first :: rest ->
        let rec go (kind, doc) rest =
          let g = guarded doc in
          match g.Pipeline.g_outcome with
          | Pipeline.Admitted ->
              let act =
                match kind with
                | `Refit -> Retuned g.Pipeline.g_speedup
                | `Last -> Remapped g.Pipeline.g_speedup
              in
              (Hinted (doc, g.Pipeline.g_hints), act, Some g.Pipeline.g_final)
          | _ -> (
              match rest with
              | next :: rest' -> go next rest'
              | [] ->
                  let plan', act = descend g ~doc in
                  (plan', act, Some g.Pipeline.g_final))
        in
        go first rest
  with Watchdog.Timed_out _ -> (plan, Retune_timed_out, None)

let log_line (s : segment_result) =
  Printf.sprintf
    "segment=%d workload=%s plan=%s windows=%d drifted=%d score=%.4f \
     streak=%d verdict=%s action=%s cycles=%d retune_cycles=%d"
    s.s_index s.s_workload s.s_plan s.s_eval.Drift.ev_windows
    s.s_eval.Drift.ev_drifted s.s_eval.Drift.ev_score
    s.s_eval.Drift.ev_streak
    (Drift.verdict_to_string s.s_verdict)
    (action_to_string s.s_action) s.s_cycles s.s_retune_cycles

let run ?(config = default_config) ?memo:shared ?quarantine ~profile ~name
    segments =
  Trace.with_span ~name:"adapt.run" ~attrs:[ ("workload", name) ]
  @@ fun () ->
  let cfg = config in
  let det = Drift.create ~config:cfg.drift (reference_of_profile profile) in
  let breaker = Breaker.create ~config:cfg.breaker () in
  let sampler = Profiler.sampler cfg.options in
  let plan = ref (plan_of_profile ~options:cfg.options profile) in
  let results = ref [] in
  List.iteri
    (fun i w ->
      let idx = i + 1 in
      Trace.with_span ~name:"adapt.segment"
        ~attrs:
          [ ("workload", w.Workload.name); ("index", string_of_int idx) ]
      @@ fun () ->
      let hints_arg, veto =
        match !plan with
        | Hinted (_, hs) -> (hs, None)
        | Aj_static -> ([], None)
        | Pinned (_, hs) ->
            (hs, Some (fun _ -> Some "adapt: plan pinned to baseline"))
      in
      let plan_used = plan_to_string !plan in
      Drift.begin_epoch det;
      let memo = Meas_cache.create () in
      let epoch =
        epoch cfg ~memos:(memo :: Option.to_list shared) ~sampler ?veto
          ~hints:hints_arg w
      in
      (match epoch.e_measurement.Pipeline.verified with
      | Ok () -> ()
      | Error e ->
          failwith
            (Printf.sprintf "adapt: segment %s failed verification: %s"
               w.Workload.name e));
      List.iter (Drift.observe_window det) epoch.e_windows;
      let iter_med = Option.bind epoch.e_refit iter_median in
      let stale =
        match !plan with
        | Hinted _ -> epoch.e_hints_dropped <> []
        | _ -> false
      in
      let verdict, eval =
        Drift.end_epoch det ?iter_median:iter_med ~stale_hints:stale ()
      in
      let epoch_reference =
        {
          Drift.ref_mpki =
            Machine.mpki epoch.e_measurement.Pipeline.outcome;
          ref_iter = iter_med;
        }
      in
      let action, retune_cycles =
        match verdict with
        | Drift.Stable ->
            ((if eval.Drift.ev_suppressed then Dwell_suppressed else No_drift), 0)
        | Drift.Drifted _ -> (
            match Breaker.acquire breaker with
            | Breaker.Refuse _ -> (Breaker_refused, 0)
            | Breaker.Run | Breaker.Probe ->
                let plan', act, final =
                  retune cfg ~memo ?quarantine ~plan:!plan ~refit:epoch.e_refit w
                in
                (* The segment's memo shares the baseline and A&J runs
                   between the retune's attempts. A retune is charged
                   every distinct guard run it consulted, the epoch's
                   own included when it answered a candidate. *)
                let cycles =
                  List.fold_left
                    (fun n (m : Pipeline.measurement) ->
                      n + m.Pipeline.outcome.Machine.cycles)
                    0 (Meas_cache.answered memo)
                in
                Breaker.record breaker ~ok:(retune_ok act);
                plan := plan';
                (* Re-anchor the detector on whatever the loop now
                   stands behind — for held plans (no candidate, timed
                   out), on the drifted phase's own evidence, so a
                   persistent new normal stops re-firing and the
                   breaker is not pumped forever. *)
                let reference' =
                  match final with
                  | Some m ->
                      {
                        Drift.ref_mpki = Machine.mpki m.Pipeline.outcome;
                        ref_iter = iter_med;
                      }
                  | None -> epoch_reference
                in
                Drift.note_retune det reference';
                (act, cycles))
      in
      Metrics.incr "adapt.segments";
      Metrics.set_gauge "adapt.drift.score" eval.Drift.ev_score;
      (match verdict with
      | Drift.Drifted _ -> Metrics.incr "adapt.verdicts"
      | Drift.Stable -> ());
      (match action with
      | Dwell_suppressed -> Metrics.incr "adapt.suppressed.dwell"
      | Breaker_refused -> Metrics.incr "adapt.suppressed.breaker"
      | _ -> ());
      (match rung_of_action action with
      | Some (rung, _) ->
          Metrics.incr "adapt.retunes";
          Metrics.set_gauge "adapt.ladder.rung" (float_of_int rung)
      | None -> ());
      let s =
        {
          s_index = idx;
          s_workload = w.Workload.name;
          s_plan = plan_used;
          s_epoch = epoch;
          s_eval = eval;
          s_verdict = verdict;
          s_action = action;
          s_cycles =
            epoch.e_measurement.Pipeline.outcome.Machine.cycles;
          s_retune_cycles = retune_cycles;
        }
      in
      results := s :: !results)
    segments;
  let segments = List.rev !results in
  let count f = List.length (List.filter f segments) in
  let ladder =
    List.filter_map
      (fun (_, label) ->
        let n =
          count (fun s ->
              match rung_of_action s.s_action with
              | Some (_, l) -> l = label
              | None -> false)
        in
        if n > 0 then Some (label, n) else None)
      [ ((), "retuned"); ((), "remapped"); ((), "aj"); ((), "pinned") ]
  in
  {
    a_name = name;
    a_segments = segments;
    a_retunes =
      count (fun s -> rung_of_action s.s_action <> None);
    a_suppressed_dwell = count (fun s -> s.s_action = Dwell_suppressed);
    a_suppressed_breaker = count (fun s -> s.s_action = Breaker_refused);
    a_ladder = ladder;
    a_app_cycles = List.fold_left (fun acc s -> acc + s.s_cycles) 0 segments;
    a_retune_cycles =
      List.fold_left (fun acc s -> acc + s.s_retune_cycles) 0 segments;
    a_final_plan = plan_to_string !plan;
    a_log = List.map log_line segments;
  }

let prime ?(config = default_config) (w : Workload.t) =
  Pipeline.profile ~options:config.options w

let replicate n (w : Workload.t) =
  if n < 1 then invalid_arg "Adapt.replicate: n must be >= 1";
  List.init n (fun i ->
      { w with Workload.name = Printf.sprintf "%s@%d" w.Workload.name (i + 1) })

let render (r : report) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "online %s: segments=%d retunes=%d dwell-suppressed=%d \
        breaker-suppressed=%d app_cycles=%d retune_cycles=%d final=%s\n"
       r.a_name
       (List.length r.a_segments)
       r.a_retunes r.a_suppressed_dwell r.a_suppressed_breaker r.a_app_cycles
       r.a_retune_cycles r.a_final_plan);
  (match r.a_ladder with
  | [] -> ()
  | l ->
      Buffer.add_string b
        ("ladder: "
        ^ String.concat " "
            (List.map (fun (label, n) -> Printf.sprintf "%s=%d" label n) l)
        ^ "\n"));
  List.iter (fun line -> Buffer.add_string b (line ^ "\n")) r.a_log;
  Buffer.contents b
