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

(* The workload to run and a thunk for its program. A client-shipped
   program re-parses on every build: injection passes mutate the IR in
   place, so handing out one shared [Ir.func] would leak one run's
   prefetches into the next. Its memory comes from the suite record's
   build, which for a store-free kernel is a copy-on-write alias of one
   image: a shipped program that stores copies the image on its first
   write and leaves it intact. Its program comes from its own text over
   the record's arguments; a resolved record's, from the per-record
   table, so a warm request builds nothing. *)
let prepare w = function
  | None -> Ok (w, fun () -> Meas_cache.program w)
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
          fun () -> Meas_cache.shipped w ~text:ir_text func ))

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
    | Ok (w, program) -> (
      let watchdog = tighten Watchdog.default req.Wire.deadline_cycles in
      let floor =
        Option.value req.Wire.guard_floor ~default:Pipeline.default_floor
      in
      try
        let program = program () in
        (* Without a tenant memo, a memo for this request alone still
           lets the guard take a cold request's profiling run as its
           baseline. The key holds no budget: a run answers only where
           this request's caps could not have stopped it. *)
        let memo =
          match tenant.Tenant.cache with
          | Some m -> m
          | None -> Meas_cache.create ()
        in
        let doc =
          match req.Wire.hints with
          | Some doc -> doc
          | None ->
            Profiler.to_doc
              (snd (Pipeline.profiled ~memo ~program ~watchdog ?crash w))
        in
        let g =
          Pipeline.run_guarded ~memo ~floor ~quarantine:tenant.Tenant.quarantine
            ~remap:req.Wire.remap ~watchdog ?crash ~program ~doc w
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
