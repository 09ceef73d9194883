(* The experiment harness in quick mode: every figure runs, renders,
   and exhibits the paper's qualitative shape. *)

module Lab = Aptget_experiments.Lab
module Registry = Aptget_experiments.Registry
module Micro_exps = Aptget_experiments.Micro_exps
module Eval_exps = Aptget_experiments.Eval_exps
module Extensions = Aptget_experiments.Extensions
module Pipeline = Aptget_core.Pipeline
module Machine = Aptget_machine.Machine
module Workload = Aptget_workloads.Workload
module Costmodel = Aptget_passes.Costmodel
module Loops = Aptget_passes.Loops
module Stats = Aptget_util.Stats
module Table = Aptget_util.Table

(* One shared quick lab: measurements memoize across test cases. *)
let lab = Lab.create ~quick:true ()

let test_fig5_stall_fractions_sane () =
  List.iter
    (fun w ->
      let m = Lab.baseline lab w in
      let frac = Machine.memory_stall_fraction m.Pipeline.outcome in
      Alcotest.(check bool)
        (Printf.sprintf "%s memory-bound fraction in (0,1)" w.Workload.name)
        true
        (frac > 0.05 && frac < 1.0))
    (Lab.suite lab)

let test_fig6_shape () =
  (* The headline: APT-GET speeds up the suite on (geo)average and at
     least matches A&J. *)
  let speedups variant =
    Lab.suite lab
    |> List.map (fun w ->
           let base = Lab.baseline lab w in
           Pipeline.speedup ~baseline:base (variant w))
    |> Array.of_list
  in
  let apt = Stats.geomean (speedups (fun w -> Lab.aptget lab w)) in
  let aj = Stats.geomean (speedups (fun w -> Lab.aj lab w)) in
  Alcotest.(check bool)
    (Printf.sprintf "APT-GET geomean %.2f > 1.1" apt)
    true (apt > 1.1);
  Alcotest.(check bool)
    (Printf.sprintf "APT-GET (%.2f) >= A&J (%.2f)" apt aj)
    true (apt >= aj *. 0.95)

let test_fig7_mpki_reduced () =
  (* On the heavily-missing apps, APT-GET must cut LLC MPKI. *)
  let w =
    List.find (fun w -> w.Workload.name = "randAcc-quick") (Lab.suite lab)
  in
  let base = Lab.baseline lab w in
  let apt = Lab.aptget lab w in
  Alcotest.(check bool) "MPKI reduction > 50%" true
    (Pipeline.mpki_reduction ~baseline:base apt > 0.5)

let test_fig8_lbr_near_best () =
  (* The LBR-chosen distance achieves a solid fraction of the
     exhaustive-search best on every quick workload. *)
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let apt = Pipeline.speedup ~baseline:base (Lab.aptget lab w) in
      let best =
        List.fold_left
          (fun acc d ->
            max acc
              (Pipeline.speedup ~baseline:base (Lab.static_distance lab ~distance:d w)))
          0. [ 1; 4; 16; 64 ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: apt %.2f vs best %.2f" w.Workload.name apt best)
        true
        (apt >= 0.7 *. best))
    (Lab.suite lab)

let test_fig11_overhead_bounded () =
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let apt = Lab.aptget lab w in
      let o = Pipeline.instruction_overhead ~baseline:base apt in
      Alcotest.(check bool)
        (Printf.sprintf "%s overhead %.2f in [1, 3]" w.Workload.name o)
        true
        (o >= 1.0 && o < 3.0))
    (Lab.suite lab)

let test_table1_shape () =
  (* IPC improves at a good distance and prefetch accuracy collapses at
     distance >> trip count; rendered cells just need to exist here,
     the numeric shape is asserted via the underlying measurements. *)
  match Micro_exps.table1 lab with
  | [ t ] ->
    let rendered = Table.render t in
    Alcotest.(check bool) "has Dist-1024 row" true
      (String.length rendered > 0)
  | _ -> Alcotest.fail "table1 must produce one table"

let test_fig1_fig2_render () =
  List.iter
    (fun tables ->
      List.iter
        (fun t -> Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0))
        tables)
    [ Micro_exps.fig1 lab; Micro_exps.fig2 lab ]

let test_fig12_train_test_close () =
  match Eval_exps.fig12 lab with
  | [ t ] ->
    Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0)
  | _ -> Alcotest.fail "fig12 must produce one table"

let test_extensions_cost_model () =
  match Extensions.cost_model lab with
  | [ t ] ->
    Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0)
  | _ -> Alcotest.fail "cost_model must produce one table"

let test_costmodel_static_estimate () =
  (* The static model charges the assumed load latency and cannot see
     parametric work amounts. *)
  let w = List.hd (Lab.suite lab) in
  let inst = w.Workload.build () in
  let f = inst.Workload.func in
  let loops = Loops.analyze f in
  Alcotest.(check bool) "loops found" true (Array.length loops > 0);
  let cost = Costmodel.loop_iteration_cost f loops.(0) in
  Alcotest.(check bool) "positive" true (cost > 0);
  let cheap =
    Costmodel.loop_iteration_cost
      ~config:{ Costmodel.assumed_load_latency = 1; assumed_work = 0 }
      f loops.(0)
  in
  Alcotest.(check bool) "load latency assumption matters" true (cheap < cost)

let test_costmodel_distance_bounds () =
  let w = List.hd (Lab.suite lab) in
  let inst = w.Workload.build () in
  let f = inst.Workload.func in
  let loops = Loops.analyze f in
  let d = Costmodel.static_distance ~dram_latency:250 f loops.(0) in
  Alcotest.(check bool) "in [1,128]" true (d >= 1 && d <= 128)

let test_overhead_filter_drops_expensive_hints () =
  let options =
    {
      Aptget_profile.Profiler.default_options with
      Aptget_profile.Profiler.max_overhead_frac = 0.0001;
    }
  in
  let w = List.hd (Lab.suite lab) in
  let prof = Pipeline.profile ~options w in
  Alcotest.(check (list int)) "all hints dropped at ~zero budget" []
    (List.map (fun (h : Aptget_passes.Aptget_pass.hint) ->
         h.Aptget_passes.Aptget_pass.load_pc)
       prof.Aptget_profile.Profiler.hints)

let test_median_snapshot_sorts_first () =
  (* Regression: the fig3 median snapshot used to be whatever arrived in
     the middle of an unsorted list, not the median. The log holds
     snapshots in capture order, so the median is by capture cycle. *)
  let module Sampler = Aptget_pmu.Sampler in
  let sampled cycles =
    let s = Sampler.create ~lbr_period:10 () in
    List.iter (fun cycle -> Sampler.on_cycle s ~cycle) cycles;
    s
  in
  let s = sampled [ 10; 300; 500; 700; 900 ] in
  Alcotest.(check int) "median by cycle" 500
    (Sampler.at_cycle s (Micro_exps.median_snapshot s));
  (* Even length: upper median, matching count/2. *)
  let s4 = sampled [ 10; 20; 30; 40 ] in
  Alcotest.(check int) "even length takes upper median" 30
    (Sampler.at_cycle s4 (Micro_exps.median_snapshot s4));
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Micro_exps.median_snapshot: no snapshots")
    (fun () -> ignore (Micro_exps.median_snapshot (sampled [])))

let test_run_and_print_does_not_raise () =
  (* Smoke over the print path (output discarded via a pipe-less call;
     run_and_print writes to stdout, which alcotest captures). *)
  let e = Option.get (Registry.find "table2") in
  Registry.run_and_print lab e

let () =
  Alcotest.run "experiments"
    [
      ( "figures",
        [
          Alcotest.test_case "fig5 stall fractions" `Quick test_fig5_stall_fractions_sane;
          Alcotest.test_case "fig6 shape" `Quick test_fig6_shape;
          Alcotest.test_case "fig7 mpki" `Quick test_fig7_mpki_reduced;
          Alcotest.test_case "fig8 near best" `Quick test_fig8_lbr_near_best;
          Alcotest.test_case "fig11 overhead" `Quick test_fig11_overhead_bounded;
          Alcotest.test_case "table1 renders" `Quick test_table1_shape;
          Alcotest.test_case "fig1/fig2 render" `Quick test_fig1_fig2_render;
          Alcotest.test_case "fig12 renders" `Quick test_fig12_train_test_close;
          Alcotest.test_case "fig3 median snapshot" `Quick
            test_median_snapshot_sorts_first;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "cost model table" `Quick test_extensions_cost_model;
          Alcotest.test_case "static estimate" `Quick test_costmodel_static_estimate;
          Alcotest.test_case "distance bounds" `Quick test_costmodel_distance_bounds;
          Alcotest.test_case "overhead filter" `Quick test_overhead_filter_drops_expensive_hints;
        ] );
      ( "registry",
        [ Alcotest.test_case "print path" `Quick test_run_and_print_does_not_raise ] );
    ]
