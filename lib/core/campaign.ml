module Machine = Aptget_machine.Machine
module Workload = Aptget_workloads.Workload
module Faults = Aptget_pmu.Faults
module Crash = Aptget_store.Crash
module Journal = Aptget_store.Journal
module Pool = Aptget_util.Pool
module Backoff = Aptget_util.Backoff
module Trace = Aptget_obs.Trace
module Metrics = Aptget_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Plans *)

type trial = { t_id : string; t_workload : Workload.t }

let plan ?(trials_per_workload = 1) workloads =
  if trials_per_workload < 1 then
    invalid_arg "Campaign.plan: trials_per_workload < 1";
  List.concat_map
    (fun (w : Workload.t) ->
      List.init trials_per_workload (fun i ->
          { t_id = Printf.sprintf "%s#%d" w.Workload.name (i + 1);
            t_workload = w }))
    workloads

type config = {
  max_retries : int;
  backoff_base : float;
  breaker_threshold : int;
  breaker_cooldown : int;
  watchdog : Watchdog.config;
  faults : Faults.config;
}

let default_config =
  {
    max_retries = 2;
    backoff_base = 2.0;
    breaker_threshold = 3;
    breaker_cooldown = 2;
    watchdog = Watchdog.default;
    faults = Faults.none;
  }

(* ------------------------------------------------------------------ *)
(* Circuit breakers: one per workload name. A workload that keeps
   failing trial after trial is probably broken in a way retries cannot
   fix (bad build, pathological config), so after [breaker_threshold]
   consecutive trial failures the breaker opens and the next
   [breaker_cooldown] trials of that workload are skipped outright.
   The first trial after the cooldown runs as a half-open probe (one
   attempt, no retries): success re-closes the breaker, failure
   re-opens it for another cooldown. The state machine itself lives in
   {!Breaker} (the serve daemon reuses it per tenant); the campaign
   keeps one per workload group. *)

(* ------------------------------------------------------------------ *)
(* Results *)

type status =
  | Completed of { speedup : float }
  | Resumed of { speedup : float option }
  | Failed of string
  | Skipped of string

type trial_result = {
  tr_id : string;
  tr_workload : string;
  tr_status : status;
  tr_attempts : int;  (** 0 for resumed/skipped trials *)
  tr_backoff : float;
      (** total capped backoff factor accrued across retries *)
}

let status_to_string = function
  | Completed { speedup } -> Printf.sprintf "ok (%.3fx)" speedup
  | Resumed { speedup = Some s } ->
    Printf.sprintf "resumed from checkpoint (%.3fx)" s
  | Resumed { speedup = None } -> "resumed from checkpoint"
  | Failed why -> Printf.sprintf "failed: %s" why
  | Skipped why -> Printf.sprintf "skipped: %s" why

type report = {
  c_results : trial_result list;  (** in plan order *)
  c_completed : int;
  c_resumed : int;
  c_retried : int;
  c_failed : int;
  c_skipped : int;
  c_breakers_opened : (string * int) list;
  c_breaker_final : (string * string) list;
  c_store_recovery : Journal.recovery;
}

let ok r =
  r.c_failed = 0 && r.c_skipped = 0 && r.c_breakers_opened = []

(* ------------------------------------------------------------------ *)
(* Checkpoint records. One journal record per executed trial:

     trial=<id> workload=<name> status=ok|failed attempts=<n> [speedup=<f>]

   Workload (and hence trial) names are space-free by construction, so
   the payload splits on single spaces. Resume replays the journal and
   skips exactly the trials whose latest record says ok — a failed
   record documents the attempt but leaves the trial eligible, so a
   resumed campaign retries past failures rather than fossilising
   them. *)

let record_of_trial ~id ~workload ~ok ~attempts ~speedup =
  let base =
    Printf.sprintf "trial=%s workload=%s status=%s attempts=%d" id workload
      (if ok then "ok" else "failed")
      attempts
  in
  match speedup with
  | None -> base
  | Some s -> Printf.sprintf "%s speedup=%.6f" base s

let parse_record payload =
  let kvs =
    String.split_on_char ' ' payload
    |> List.filter_map (fun tok ->
           match String.index_opt tok '=' with
           | Some i ->
             Some
               ( String.sub tok 0 i,
                 String.sub tok (i + 1) (String.length tok - i - 1) )
           | None -> None)
  in
  match (List.assoc_opt "trial" kvs, List.assoc_opt "status" kvs) with
  | Some id, Some status ->
    Some
      ( id,
        status,
        Option.bind (List.assoc_opt "speedup" kvs) float_of_string_opt )
  | _ -> None

let completed_of_journal records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun payload ->
      match parse_record payload with
      | Some (id, "ok", speedup) -> Hashtbl.replace tbl id speedup
      | Some (id, _, _) -> Hashtbl.remove tbl id
      | None -> ())
    records;
  tbl

(* ------------------------------------------------------------------ *)
(* Trial execution *)

let failure_reason (r : Pipeline.robust) =
  match r.Pipeline.r_measurement with
  | Some m -> (
    match m.Pipeline.verified with
    | Ok () -> assert false
    | Error e -> "verification failed: " ^ e)
  | None -> (
    match List.rev r.Pipeline.r_degradations with
    | d :: _ -> d.Pipeline.cause
    | [] -> "no measurement produced")

(* Everything a workload's trials share — breaker, baseline memo — is
   local to its group, so independent workloads can run on separate
   domains with no shared mutable state beyond the journal (whose
   appends are serialized by the caller-supplied [append]). *)
type group_outcome = {
  g_rows : (int * trial_result) list; (* (plan index, result) *)
  g_opened : int;
  g_final : Breaker.state;
}

let run_group ~config ~crash ~append ~done_tbl wname indexed_trials =
  let b =
    Breaker.create
      ~config:
        {
          Breaker.threshold = config.breaker_threshold;
          cooldown = config.breaker_cooldown;
        }
      ()
  in
  (* Baselines are memoized per workload: a campaign re-visits each
     workload trials_per_workload times and the baseline is identical
     every time (the simulator is deterministic). Only successes are
     memoized — a transient baseline failure (flaky build) must be
     retryable on the trial's next attempt, not fossilised. *)
  let baseline = ref None in
  let baseline_of (w : Workload.t) =
    match !baseline with
    | Some b -> Ok b
    | None -> (
      match
        (Pipeline.measure ~watchdog:config.watchdog ?crash w)
          .Pipeline.tenant
      with
      | m ->
        baseline := Some m;
        Ok m
      | exception Watchdog.Timed_out t ->
        Error ("baseline " ^ Watchdog.timeout_to_string t)
      | exception e when not (Crash.is_crashed e) ->
        Error ("baseline failed: " ^ Printexc.to_string e))
  in
  let run_once (w : Workload.t) =
    match baseline_of w with
    | Error why -> Error why
    | Ok base -> (
      let r =
        Pipeline.run_robust ~faults:config.faults ~watchdog:config.watchdog
          ?crash w
      in
      match r.Pipeline.r_measurement with
      | Some m when m.Pipeline.verified = Ok () ->
        Ok (Pipeline.speedup ~baseline:base m)
      | _ -> Error (failure_reason r))
  in
  (* Retry with capped exponential backoff. The simulator has no
     wall-clock to sleep on, so the backoff factor is recorded rather
     than slept: attempt n waits base^(n-1), capped at
     Faults.max_backoff like the PMU-retry ladder. Jitter-free
     (Backoff.factor), so recorded factors are byte-identical to the
     historical inline formula. *)
  let backoff_config =
    { Backoff.base = config.backoff_base; cap = Faults.max_backoff; jitter = 0. }
  in
  let with_retries ~max_retries w =
    let rec go attempt backoff =
      match run_once w with
      | Ok s -> (attempt, backoff, Ok s)
      | Error why ->
        if attempt > max_retries then (attempt, backoff, Error why)
        else begin
          Metrics.incr "campaign.retries";
          let factor = Backoff.factor backoff_config ~attempt in
          Metrics.observe "campaign.backoff_factor" factor;
          go (attempt + 1) (backoff +. factor)
        end
    in
    go 1 0.
  in
  let rows =
    List.map
      (fun (idx, t) ->
        let result =
          Trace.with_span ~name:"campaign.trial" ~attrs:[ ("trial", t.t_id) ]
          @@ fun () ->
          match Hashtbl.find_opt done_tbl t.t_id with
          | Some speedup ->
            {
              tr_id = t.t_id;
              tr_workload = wname;
              tr_status = Resumed { speedup };
              tr_attempts = 0;
              tr_backoff = 0.;
            }
          | None -> (
            match Breaker.acquire b with
            | Breaker.Refuse _ ->
              Metrics.incr "campaign.breaker.skips";
              {
                tr_id = t.t_id;
                tr_workload = wname;
                tr_status =
                  Skipped
                    (Printf.sprintf "circuit breaker open for %s" wname);
                tr_attempts = 0;
                tr_backoff = 0.;
              }
            | (Breaker.Run | Breaker.Probe) as admission ->
              let max_retries =
                (* a half-open probe gets exactly one attempt *)
                match admission with
                | Breaker.Probe -> 0
                | _ -> config.max_retries
              in
              let attempts, backoff, outcome =
                with_retries ~max_retries t.t_workload
              in
              let status =
                match outcome with
                | Ok speedup ->
                  if admission = Breaker.Probe then
                    Metrics.incr "campaign.breaker.reclosed";
                  Breaker.record b ~ok:true;
                  append
                    (record_of_trial ~id:t.t_id ~workload:wname ~ok:true
                       ~attempts ~speedup:(Some speedup));
                  Completed { speedup }
                | Error why ->
                  let opened_before = Breaker.opened_count b in
                  Breaker.record b ~ok:false;
                  if Breaker.opened_count b > opened_before then
                    Metrics.incr "campaign.breaker.opened";
                  append
                    (record_of_trial ~id:t.t_id ~workload:wname ~ok:false
                       ~attempts ~speedup:None);
                  Failed why
              in
              {
                tr_id = t.t_id;
                tr_workload = wname;
                tr_status = status;
                tr_attempts = attempts;
                tr_backoff = backoff;
              })
        in
        (idx, result))
      indexed_trials
  in
  { g_rows = rows; g_opened = Breaker.opened_count b; g_final = Breaker.state b }

let run ?(config = default_config) ?crash ~store trials =
  let journal, recovery = Journal.open_ ?crash ~path:store () in
  if recovery.Journal.dropped > 0 then
    Metrics.incr ~by:recovery.Journal.dropped "store.salvage.journal";
  Fun.protect ~finally:(fun () -> Journal.close journal) @@ fun () ->
  let done_tbl = completed_of_journal recovery.Journal.records in
  let jmutex = Mutex.create () in
  let append record =
    Mutex.lock jmutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock jmutex)
      (fun () -> Journal.append journal record)
  in
  (* Group by workload name, keeping trial order within a group and
     groups in first-appearance order. Breakers and baselines are
     per-workload, so groups are independent units of work. *)
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iteri
    (fun idx t ->
      let wname = t.t_workload.Workload.name in
      match Hashtbl.find_opt groups wname with
      | Some acc -> acc := (idx, t) :: !acc
      | None ->
        Hashtbl.add groups wname (ref [ (idx, t) ]);
        order := wname :: !order)
    trials;
  let group_list =
    List.rev_map
      (fun wname -> (wname, List.rev !(Hashtbl.find groups wname)))
      !order
  in
  let process (wname, its) =
    run_group ~config ~crash ~append ~done_tbl wname its
  in
  (* A crash plan arms a deterministic kill at the k-th store write;
     that ordering only exists serially, so an armed plan forces the
     sequential path. *)
  let outcomes =
    if crash <> None then List.map process group_list
    else Pool.run process group_list
  in
  let results =
    List.concat_map (fun g -> g.g_rows) outcomes
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let opened =
    List.filter_map
      (fun ((wname, _), g) ->
        if g.g_opened > 0 then Some (wname, g.g_opened) else None)
      (List.combine group_list outcomes)
  in
  let count p = List.length (List.filter p results) in
  {
    c_results = results;
    c_completed =
      count (fun r -> match r.tr_status with Completed _ -> true | _ -> false);
    c_resumed =
      count (fun r -> match r.tr_status with Resumed _ -> true | _ -> false);
    c_retried =
      count (fun r ->
          match r.tr_status with Completed _ -> r.tr_attempts > 1 | _ -> false);
    c_failed =
      count (fun r -> match r.tr_status with Failed _ -> true | _ -> false);
    c_skipped =
      count (fun r -> match r.tr_status with Skipped _ -> true | _ -> false);
    c_breakers_opened = opened;
    c_breaker_final =
      List.map
        (fun ((wname, _), g) -> (wname, Breaker.state_to_string g.g_final))
        (List.combine group_list outcomes)
      |> List.sort compare;
    c_store_recovery = recovery;
  }
