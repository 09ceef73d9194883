module Machine = Aptget_machine.Machine
module Workload = Aptget_workloads.Workload
module Suite = Aptget_workloads.Suite
module Profiler = Aptget_profile.Profiler
module Hints_file = Aptget_profile.Hints_file
module Remap = Aptget_profile.Remap
module Pipeline = Aptget_core.Pipeline
module Watchdog = Aptget_core.Watchdog
module Breaker = Aptget_core.Breaker
module Meas_cache = Aptget_core.Meas_cache
module Crash = Aptget_store.Crash
module Metrics = Aptget_obs.Metrics
module Table = Aptget_util.Table

type outcome = { h_status : Wire.status; h_reason : string; h_body : string }

type config = { resolve : string -> Workload.t option }

let default_config = { resolve = Suite.find }

let rejected reason = { h_status = Wire.Rejected; h_reason = reason; h_body = "" }

let failed reason = { h_status = Wire.Failed; h_reason = reason; h_body = "" }

let timed_out reason = { h_status = Wire.Timed_out; h_reason = reason; h_body = "" }

(* Program fingerprints of resolved workloads, one entry per name.
   An entry answers only while [resolve] hands back the very record it
   was taken from: the fingerprint is then that of a fresh build, as
   build is deterministic (the measurement cache relies on the same).
   Handlers run on pool domains, so every access holds the lock; two
   domains missing together both build, and store the same value. *)
let fingerprints : (string, Workload.t * Fingerprint.t) Hashtbl.t =
  Hashtbl.create 16

let fingerprints_lock = Mutex.create ()

let fingerprint_of (w : Workload.t) =
  let memo =
    Mutex.protect fingerprints_lock (fun () ->
        match Hashtbl.find_opt fingerprints w.Workload.name with
        | Some (w', fp) when w' == w -> Some fp
        | _ -> None)
  in
  match memo with
  | Some fp -> fp
  | None ->
    let fp = Fingerprint.fingerprint (w.Workload.build ()).Workload.func in
    Mutex.protect fingerprints_lock (fun () ->
        Hashtbl.replace fingerprints w.Workload.name (w, fp));
    fp

(* The workload to run and a thunk for its program fingerprint. A
   client-shipped program re-parses on every build: injection passes
   mutate the IR in place, so handing out one shared [Ir.func] would
   leak one run's prefetches into the next. Its memory comes from the
   suite record's build, which for a store-free kernel is a
   copy-on-write alias of one image: a shipped program that stores
   copies the image on its first write and leaves it intact. Its
   fingerprint comes from its own text, never from the memo, which
   keys suite records. *)
let prepare w = function
  | None -> Ok (w, fun () -> fingerprint_of w)
  | Some ir_text -> (
    match Parser.func ir_text with
    | Error e -> Error e
    | Ok func ->
      Ok
        ( {
            w with
            Workload.build =
              (fun () ->
                let inst = w.Workload.build () in
                { inst with Workload.func = Parser.func_exn ir_text });
          },
          fun () -> Fingerprint.fingerprint func ))

(* The request deadline caps the simulated stages' cycle budgets (a
   tighter base budget still wins). *)
let tighten (wd : Watchdog.config) = function
  | None -> wd
  | Some deadline ->
    let cap (b : Watchdog.budget) =
      {
        b with
        Watchdog.max_cycles =
          (if b.Watchdog.max_cycles = 0 then deadline
           else min b.Watchdog.max_cycles deadline);
      }
    in
    {
      wd with
      Watchdog.profile_budget = cap wd.Watchdog.profile_budget;
      measure_budget = cap wd.Watchdog.measure_budget;
    }

let render_guarded ~tenant ~floor (g : Pipeline.guarded) =
  String.concat ""
    [
      Printf.sprintf "workload=%s tenant=%s program=%s\n" g.Pipeline.g_workload
        tenant
        (Fingerprint.hex g.Pipeline.g_program);
      Pipeline.render_measurement "baseline" g.Pipeline.g_baseline;
      Pipeline.render_measurement "APT-GET" g.Pipeline.g_final;
      Option.fold ~none:"" ~some:Remap.render_summary g.Pipeline.g_remap;
      Pipeline.render_guard ~floor g.Pipeline.g_outcome;
      Printf.sprintf "speedup: %s (%d hint(s))\n"
        (Table.fmt_speedup g.Pipeline.g_speedup)
        (List.length g.Pipeline.g_hints);
      Hints_file.to_string g.Pipeline.g_hints;
    ]

let execute ?crash config ~(tenant : Tenant.t) (req : Wire.request) =
  match config.resolve req.Wire.workload with
  | None -> rejected (Printf.sprintf "unknown workload %S" req.Wire.workload)
  | Some w -> (
    match prepare w req.Wire.program with
    | Error e -> rejected ("program: " ^ e)
    | Ok (w, fingerprint) -> (
      let watchdog = tighten Watchdog.default req.Wire.deadline_cycles in
      let floor =
        Option.value req.Wire.guard_floor ~default:Pipeline.default_floor
      in
      try
        (* A cold request's profiling run is also its baseline. *)
        let doc, baseline =
          match req.Wire.hints with
          | Some doc -> (doc, None)
          | None ->
            let base, prof = Pipeline.profiled ~watchdog ?crash w in
            (Profiler.to_doc prof, Some base)
        in
        let program = fingerprint () in
        let measure_cache =
          match tenant.Tenant.cache with
          | None -> None
          | Some scope ->
            (* The effective watchdog budgets — the daemon's base config
               with the request deadline folded in — are part of the
               key: a measurement taken under loose budgets must not
               answer from a persistent tenant cache for a request (or
               a restarted daemon) whose tighter ones would have
               fired. *)
            let options =
              let b (x : Watchdog.budget) =
                Printf.sprintf "%d/%d" x.Watchdog.max_cycles
                  x.Watchdog.max_steps
              in
              Printf.sprintf "wd=%s,%s,%s%s"
                (b watchdog.Watchdog.profile_budget)
                (b watchdog.Watchdog.inject_budget)
                (b watchdog.Watchdog.measure_budget)
                (match req.Wire.deadline_cycles with
                | Some d -> Printf.sprintf ";deadline=%d" d
                | None -> "")
            in
            Some
              (fun ~variant f ->
                Meas_cache.cached scope ~variant ~workload:w.Workload.name
                  ~program:program.Fingerprint.program
                  ~config:Machine.default_config ~options f)
        in
        let g =
          Pipeline.run_guarded ~floor ~quarantine:tenant.Tenant.quarantine
            ~remap:req.Wire.remap ~watchdog ?crash ?measure_cache ~program
            ?baseline ~doc w
        in
        match g.Pipeline.g_final.Pipeline.verified with
        | Error e ->
          failed ("semantic verification failed: " ^ e)
        | Ok () ->
          {
            h_status = Wire.Ok_;
            h_reason = "";
            h_body = render_guarded ~tenant:tenant.Tenant.id ~floor g;
          }
      with
      | Watchdog.Timed_out t -> timed_out (Watchdog.timeout_to_string t)
      | e when Crash.is_crashed e -> raise e
      | e -> failed (Printexc.to_string e)))

let run ?crash config ~tenant (req : Wire.request) =
  let breaker = tenant.Tenant.breaker in
  match Breaker.acquire breaker with
  | Breaker.Refuse left ->
    Metrics.incr "serve.breaker.refused";
    rejected
      (Printf.sprintf "tenant circuit breaker open (%d refusal(s) left)" left)
  | Breaker.Run | Breaker.Probe ->
    let before = Breaker.opened_count breaker in
    let outcome = execute ?crash config ~tenant req in
    Breaker.record breaker ~ok:(outcome.h_status = Wire.Ok_);
    if Breaker.opened_count breaker > before then
      Metrics.incr "serve.breaker.opened";
    outcome
