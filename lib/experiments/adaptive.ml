(* Online re-optimization study: the self-healing loop (Aptget_adapt)
   against the one-shot pipeline on the phase-change workload.

   Both arms start from the same aging profile — one whole-program
   profile of the fused kernel, whose hints are live through every
   later phase. The one-shot arm applies those hints to each phase
   unconditionally (what a deployed binary does until someone
   re-profiles); the online arm notices the drift and retunes. The
   headline speedup charges the online arm for its retune overhead
   (every supervised guard simulation), so the row is a lower bound. *)

module Table = Aptget_util.Table
module Pool = Aptget_util.Pool
module Pipeline = Aptget_core.Pipeline
module Adapt = Aptget_adapt.Adapt
module Drift = Aptget_adapt.Drift
module Phased = Aptget_workloads.Phased
module Workload = Aptget_workloads.Workload
module Machine = Aptget_machine.Machine
module Hierarchy = Aptget_cache.Hierarchy
module Profiler = Aptget_profile.Profiler

let params lab =
  if Lab.quick lab then
    {
      Phased.default_params with
      Phased.table_words = 1 lsl 19;
      phases =
        (Phased.Cold, 8_192) :: List.init 22 (fun _ -> (Phased.Hot, 24_576));
    }
  else Phased.default_params

let sum_measurements ~workload (ms : Pipeline.measurement list) =
  match ms with
  | [] -> invalid_arg "Adaptive.sum_measurements: empty"
  | first :: _ ->
      let zero =
        Hierarchy.sub_counters first.Pipeline.outcome.Machine.counters
          first.Pipeline.outcome.Machine.counters
      in
      let outcome =
        List.fold_left
          (fun acc (m : Pipeline.measurement) ->
            let o = m.Pipeline.outcome in
            {
              Machine.cycles = acc.Machine.cycles + o.Machine.cycles;
              instructions = acc.Machine.instructions + o.Machine.instructions;
              dyn_loads = acc.Machine.dyn_loads + o.Machine.dyn_loads;
              dyn_prefetches =
                acc.Machine.dyn_prefetches + o.Machine.dyn_prefetches;
              ret = None;
              counters =
                Hierarchy.add_counters acc.Machine.counters o.Machine.counters;
            })
          {
            Machine.cycles = 0;
            instructions = 0;
            dyn_loads = 0;
            dyn_prefetches = 0;
            ret = None;
            counters = zero;
          }
          ms
      in
      {
        Pipeline.workload;
        outcome;
        verified = Ok ();
        injected = [];
        skipped = [];
        wall_seconds =
          List.fold_left
            (fun acc m -> acc +. m.Pipeline.wall_seconds)
            0.0 ms;
      }

let all lab =
  let p = params lab in
  let fused = Phased.workload ~params:p ~name:"phased" () in
  let segments = Phased.segments ~params:p ~name:"phased" () in
  let seg_ws = List.map snd segments in
  let profile = Adapt.prime fused in
  (* The online arm goes first: an epoch that ran the fused hints is
     the one-shot arm's run of its segment. *)
  let online = Adapt.run ~memo:(Lab.memo lab) ~profile ~name:"phased" seg_ws in
  (* One-shot arm: fused hints on every segment, fanned across domains
     (Pool.run preserves submission order, so the arm is byte-stable
     across --jobs). *)
  let oneshot =
    Pool.run
      (fun w -> Lab.with_hints lab ~hints:profile.Profiler.hints w)
      seg_ws
  in
  let oneshot_sum = sum_measurements ~workload:"phased-online" oneshot in
  let online_sum =
    sum_measurements ~workload:"phased-online"
      (List.map
         (fun (s : Adapt.segment_result) ->
           s.Adapt.s_epoch.Adapt.e_measurement)
         online.Adapt.a_segments)
  in
  (* Charge the online arm for its retune overhead: the recorded cycle
     count is application cycles plus every supervised guard run. *)
  let online_charged =
    {
      online_sum with
      Pipeline.outcome =
        {
          online_sum.Pipeline.outcome with
          Machine.cycles =
            online_sum.Pipeline.outcome.Machine.cycles
            + online.Adapt.a_retune_cycles;
        };
    }
  in
  Lab.record lab ~workload:"phased-online" ~variant:"baseline" oneshot_sum;
  Lab.record lab ~workload:"phased-online" ~variant:"aptget" online_charged;
  let oneshot_cycles = oneshot_sum.Pipeline.outcome.Machine.cycles in
  let app_cycles = online.Adapt.a_app_cycles in
  let total_cycles = app_cycles + online.Adapt.a_retune_cycles in
  let arms = Table.create ~title:"Online re-optimization vs one-shot (phase-change workload)"
      ~header:[ "arm"; "cycles"; "speedup vs one-shot" ] in
  Table.add_row arms
    [ "one-shot (aging profile)"; string_of_int oneshot_cycles; "1.00x" ];
  Table.add_row arms
    [
      "online (application)";
      string_of_int app_cycles;
      Table.fmt_speedup (float_of_int oneshot_cycles /. float_of_int app_cycles);
    ];
  Table.add_row arms
    [
      "online (incl. retune overhead)";
      string_of_int total_cycles;
      Table.fmt_speedup
        (float_of_int oneshot_cycles /. float_of_int total_cycles);
    ];
  let summary =
    Table.create ~title:"Adaptation summary"
      ~header:[ "metric"; "value" ]
  in
  Table.add_row summary [ "segments"; string_of_int (List.length seg_ws) ];
  Table.add_row summary [ "retunes"; string_of_int online.Adapt.a_retunes ];
  List.iter
    (fun (label, n) ->
      Table.add_row summary [ "ladder " ^ label; string_of_int n ])
    online.Adapt.a_ladder;
  Table.add_row summary
    [ "dwell-suppressed"; string_of_int online.Adapt.a_suppressed_dwell ];
  Table.add_row summary
    [ "breaker-suppressed"; string_of_int online.Adapt.a_suppressed_breaker ];
  Table.add_row summary
    [ "retune overhead cycles"; string_of_int online.Adapt.a_retune_cycles ];
  Table.add_row summary [ "final plan"; online.Adapt.a_final_plan ];
  let log =
    Table.create ~title:"Retune log (deterministic across --jobs)"
      ~header:
        [
          "segment"; "plan"; "windows"; "drifted"; "score"; "streak";
          "verdict"; "action"; "cycles";
        ]
  in
  List.iter
    (fun (s : Adapt.segment_result) ->
      Table.add_row log
        [
          Printf.sprintf "%d:%s" s.Adapt.s_index s.Adapt.s_workload;
          s.Adapt.s_plan;
          string_of_int s.Adapt.s_eval.Drift.ev_windows;
          string_of_int s.Adapt.s_eval.Drift.ev_drifted;
          Printf.sprintf "%.4f" s.Adapt.s_eval.Drift.ev_score;
          string_of_int s.Adapt.s_eval.Drift.ev_streak;
          Drift.verdict_to_string s.Adapt.s_verdict;
          Adapt.action_to_string s.Adapt.s_action;
          string_of_int s.Adapt.s_cycles;
        ])
    online.Adapt.a_segments;
  [ arms; summary; log ]
