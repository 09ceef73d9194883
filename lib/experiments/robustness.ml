module Table = Aptget_util.Table
module Pipeline = Aptget_core.Pipeline
module Workload = Aptget_workloads.Workload
module Micro = Aptget_workloads.Micro
module Hashjoin = Aptget_workloads.Hashjoin
module Profiler = Aptget_profile.Profiler
module Faults = Aptget_pmu.Faults

let micro_w lab ~inner =
  let p = { (Lab.micro_params lab) with Micro.inner } in
  Micro.workload ~params:p ~name:(Printf.sprintf "micro-i%d" inner) ()

let hj_w lab =
  if Lab.quick lab then
    Hashjoin.workload
      ~params:
        {
          Hashjoin.hj8_params with
          Hashjoin.n_build = 65_536;
          n_probe = 32_768;
          n_buckets = 1 lsl 14;
        }
      ~name:"HJ8-rob" ()
  else Hashjoin.workload ~params:Hashjoin.hj8_params ~name:"HJ8-rob" ()

let fmt_speedup_opt base (r : Pipeline.robust) =
  match r.Pipeline.r_measurement with
  | Some m -> Table.fmt_speedup (Pipeline.speedup ~baseline:base m)
  | None -> "-"

let robust_row lab w label faults =
  let base = Lab.baseline lab w in
  let r = Pipeline.run_robust ~faults w in
  [
    w.Workload.name;
    label;
    Printf.sprintf "%d/%d"
      (List.length r.Pipeline.r_hints_used)
      (List.length r.Pipeline.r_hints_dropped);
    string_of_int (List.length r.Pipeline.r_degradations);
    fmt_speedup_opt base r;
  ]

(* Every knob sweep shares one seed per (knob, level) so the fault
   schedule is reproducible run to run. *)
let knobs =
  [
    ( "lbr-drop",
      List.map
        (fun rate ->
          ( Printf.sprintf "%.2f" rate,
            { Faults.none with Faults.lbr_drop_rate = rate } ))
        [ 0.0; 0.25; 0.5; 0.9 ] );
    ( "cycle-jitter",
      List.map
        (fun j ->
          (string_of_int j, { Faults.none with Faults.cycle_jitter = j }))
        [ 0; 8; 64; 512 ] );
    ( "lbr-truncate",
      List.map
        (fun rate ->
          ( Printf.sprintf "%.2f" rate,
            { Faults.none with Faults.lbr_truncate_rate = rate } ))
        [ 0.0; 0.25; 0.75 ] );
    ( "pebs-skid",
      List.map
        (fun rate ->
          ( Printf.sprintf "%.2f" rate,
            {
              Faults.none with
              Faults.pebs_skid_rate = rate;
              pebs_skid_max = 3;
            } ))
        [ 0.0; 0.25; 0.75; 1.0 ] );
    ( "throttle-budget",
      List.map
        (fun budget ->
          ( string_of_int budget,
            { Faults.none with Faults.throttle_budget = budget } ))
        [ 0; 64; 16; 4 ] );
  ]

(* One sweep per fault knob (LBR snapshot drops, cycle-stamp jitter,
   ring truncation, PEBS skid, adaptive throttling): speedup, hint
   counts and degradation counts per fault rate, on a reduced workload
   pair. *)
let fault_knobs lab =
  let ws = [ micro_w lab ~inner:256; hj_w lab ] in
  List.map
    (fun (knob, levels) ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Robustness: speedup vs %s (APT-GET under a corrupted profile, \
                run_robust)"
               knob)
          ~header:
            [ "workload"; knob; "hints used/dropped"; "degradations"; "speedup" ]
      in
      List.iter
        (fun w ->
          List.iter
            (fun (label, faults) ->
              Table.add_row t (robust_row lab w label faults))
            levels)
        ws;
      t)
    knobs

(* The whole evaluation suite under [Faults.default_faulty]: per
   workload, the clean vs faulted speedup and the degradation report
   size. *)
let suite_under_default_faults lab =
  let t =
    Table.create
      ~title:
        "Robustness: evaluation suite under the default fault mix (10% LBR \
         drop, +/-8 jitter, 5% truncation, 20% skid, throttling)"
      ~header:
        [
          "workload";
          "clean speedup";
          "faulted speedup";
          "hints used/dropped";
          "degradations";
          "verified";
        ]
  in
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let clean = Lab.aptget lab w in
      let r = Pipeline.run_robust ~faults:Faults.default_faulty w in
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_speedup (Pipeline.speedup ~baseline:base clean);
          fmt_speedup_opt base r;
          Printf.sprintf "%d/%d"
            (List.length r.Pipeline.r_hints_used)
            (List.length r.Pipeline.r_hints_dropped);
          string_of_int (List.length r.Pipeline.r_degradations);
          (match r.Pipeline.r_measurement with
          | Some m -> ( match m.Pipeline.verified with Ok () -> "ok" | Error _ -> "FAILED")
          | None -> "-");
        ])
    (Lab.suite lab);
  [ t ]

let all lab = fault_knobs lab @ suite_under_default_faults lab
