module Table = Aptget_util.Table
module Histogram = Aptget_util.Histogram
module Stats = Aptget_util.Stats
module Machine = Aptget_machine.Machine
module Hierarchy = Aptget_cache.Hierarchy
module Pipeline = Aptget_core.Pipeline
module Micro = Aptget_workloads.Micro
module Suite = Aptget_workloads.Suite
module Workload = Aptget_workloads.Workload
module Profiler = Aptget_profile.Profiler
module Model = Aptget_profile.Model
module Sampler = Aptget_pmu.Sampler
module Loops = Aptget_passes.Loops
module Loop_stats = Aptget_profile.Loop_stats

let micro_workload lab ~inner ~complexity =
  let p = Lab.micro_params lab in
  let p = { p with Micro.inner; complexity } in
  Micro.workload ~params:p
    ~name:(Printf.sprintf "micro-i%d-c%d" inner complexity)
    ()

let counters (m : Pipeline.measurement) = m.Pipeline.outcome.Machine.counters

(* The median-time snapshot. The log holds snapshots in the order they
   were taken, at strictly increasing cycles, so the one at position
   count/2 is the median by capture cycle (the upper median for an
   even count). *)
let median_snapshot sampler =
  let n = Sampler.snapshot_count sampler in
  if n = 0 then invalid_arg "Micro_exps.median_snapshot: no snapshots";
  let _, median =
    Sampler.fold_snapshots sampler ~init:(0, None) (fun (i, m) s ->
        (i + 1, if i = n / 2 then Some s else m))
  in
  Option.get median

let accuracy m =
  let c = counters m in
  if c.Hierarchy.offcore_all_data_rd = 0 then 0.
  else
    float_of_int
      (c.Hierarchy.offcore_all_data_rd - c.Hierarchy.offcore_demand_data_rd)
    /. float_of_int c.Hierarchy.offcore_all_data_rd

let late_ratio m =
  let c = counters m in
  let issued = c.Hierarchy.sw_prefetch_issued in
  if issued = 0 then 0.
  else float_of_int c.Hierarchy.load_hit_pre_sw_pf /. float_of_int issued

let table1 lab =
  let w = micro_workload lab ~inner:256 ~complexity:0 in
  Lab.run_batch lab
    (Lab.Baseline w
    :: List.map (fun d -> Lab.Aj { distance = Some d; w }) [ 1; 64; 1024 ]);
  let base = Lab.baseline lab w in
  let t =
    Table.create
      ~title:
        "Table 1: prefetch accuracy and timeliness vs prefetch-distance \
         (micro, INNER=256, low complexity)"
      ~header:[ "Prefetch"; "IPC"; "Prefetch Accuracy"; "Late Prefetch" ]
  in
  Table.add_row t
    [
      "None";
      Table.fmt_float (Machine.ipc base.Pipeline.outcome);
      Table.fmt_pct (accuracy base);
      Table.fmt_pct (late_ratio base);
    ];
  List.iter
    (fun d ->
      let m = Lab.aj lab ~distance:d w in
      Table.add_row t
        [
          Printf.sprintf "Dist-%d" d;
          Table.fmt_float (Machine.ipc m.Pipeline.outcome);
          Table.fmt_pct (accuracy m);
          Table.fmt_pct (late_ratio m);
        ])
    [ 1; 64; 1024 ];
  [ t ]

let distance_sweep lab ~title ~configs ~distances =
  Lab.run_batch lab
    (List.concat_map
       (fun (_, w) ->
         Lab.Baseline w
         :: List.map (fun d -> Lab.Aj { distance = Some d; w }) distances)
       configs);
  let t =
    Table.create ~title
      ~header:
        ("distance"
        :: List.map (fun (label, _) -> label) configs)
  in
  let bases =
    List.map (fun (_, w) -> Lab.baseline lab w) configs
  in
  List.iter
    (fun d ->
      let row =
        List.map2
          (fun (_, w) base ->
            let m = Lab.aj lab ~distance:d w in
            Table.fmt_speedup (Pipeline.speedup ~baseline:base m))
          configs bases
      in
      Table.add_row t (string_of_int d :: row))
    distances;
  [ t ]

let fig1 lab =
  let configs =
    [
      ("low", micro_workload lab ~inner:256 ~complexity:0);
      ("medium", micro_workload lab ~inner:256 ~complexity:30);
      ("high", micro_workload lab ~inner:256 ~complexity:120);
    ]
  in
  distance_sweep lab
    ~title:
      "Figure 1: speedup vs prefetch-distance per work-function complexity \
       (micro, INNER=256)"
    ~configs
    ~distances:[ 1; 2; 4; 8; 16; 32; 64; 256; 1024 ]

let fig2 lab =
  let configs =
    [
      ("INNER=4", micro_workload lab ~inner:4 ~complexity:0);
      ("INNER=16", micro_workload lab ~inner:16 ~complexity:0);
      ("INNER=64", micro_workload lab ~inner:64 ~complexity:0);
    ]
  in
  distance_sweep lab
    ~title:
      "Figure 2: speedup vs prefetch-distance per inner trip count (micro, \
       low complexity, inner-loop injection)"
    ~configs
    ~distances:[ 1; 2; 4; 8; 16; 32; 64 ]

let fig3 lab =
  let w = micro_workload lab ~inner:4 ~complexity:0 in
  let _, func, sampler = Lab.sampled lab w in
  let sample = median_snapshot sampler in
  let t =
    Table.create
      ~title:
        "Figure 3: one LBR snapshot (32 most recent taken branches; branch \
         PC, target PC, cycle)"
      ~header:[ "#"; "branch PC"; "target PC"; "cycle" ]
  in
  let n = Sampler.entry_count sampler sample in
  for i = max 0 (n - 12) to n - 1 do
    Table.add_row t
      [
        string_of_int i;
        string_of_int (Sampler.branch_pc sampler sample i);
        string_of_int (Sampler.target_pc sampler sample i);
        string_of_int (Sampler.cycle sampler sample i);
      ]
  done;
  (* Recover the loop statistics from all snapshots, as §3.1 does. *)
  let loops = Loops.analyze func in
  let inner_loop =
    Array.to_list loops
    |> List.filter (fun (l : Loops.loop) -> l.Loops.parent <> None)
    |> List.hd
  in
  let outer_loop =
    loops.(Option.get inner_loop.Loops.parent)
  in
  let times =
    Loop_stats.iteration_times sampler ~latch_pc:inner_loop.Loops.latch_pc
      ~in_loop:(fun pc ->
        List.mem (Layout.block_of_pc pc) inner_loop.Loops.blocks)
  in
  let trips =
    Loop_stats.trip_counts sampler ~inner_latch_pc:inner_loop.Loops.latch_pc
      ~outer_latch_pc:outer_loop.Loops.latch_pc
  in
  let s =
    Table.create ~title:"Loop statistics recovered from the LBR (paper §3.1)"
      ~header:[ "metric"; "value" ]
  in
  Table.add_row s [ "LBR snapshots"; string_of_int (Sampler.snapshot_count sampler) ];
  Table.add_row s
    [ "inner-loop iteration time (avg cycles)"; Table.fmt_float (Stats.mean times) ];
  Table.add_row s
    [ "inner-loop trip count (avg)"; Table.fmt_float (Stats.mean trips) ];
  Table.add_row s [ "true trip count"; "4" ];
  [ t; s ]

let fig4 lab =
  let w = List.hd (Lab.suite lab) in
  let prof = Lab.profiled lab w in
  match
    List.find_opt
      (fun (p : Profiler.load_profile) ->
        Array.length p.Profiler.iteration_times > 64 && p.Profiler.model <> None)
      prof.Profiler.profiles
  with
  | None ->
    let t =
      Table.create ~title:"Figure 4: (no delinquent loop captured)" ~header:[ "-" ]
    in
    [ t ]
  | Some p ->
    let times = p.Profiler.iteration_times in
    let hist = Histogram.of_samples ~bins:24 times in
    let counts = Histogram.counts hist in
    let maxc = Array.fold_left max 1. counts in
    let model = Option.get p.Profiler.model in
    let t =
      Table.create
        ~title:
          (Printf.sprintf
             "Figure 4: iteration-time distribution of the loop containing \
              delinquent load PC %d (%s)"
             p.Profiler.load_pc w.Workload.name)
        ~header:[ "cycles"; "count"; "histogram" ]
    in
    Array.iteri
      (fun i c ->
        let bar_len = int_of_float (c /. maxc *. 40.) in
        Table.add_row t
          [
            Printf.sprintf "%.0f" (Histogram.bin_center hist i);
            Printf.sprintf "%.0f" c;
            String.make bar_len '#';
          ])
      counts;
    let s =
      Table.create ~title:"Model derived from the distribution (Eq. 1)"
        ~header:[ "metric"; "value" ]
    in
    Table.add_row s
      [
        "peaks (cycles)";
        String.concat ", "
          (List.map (fun x -> Printf.sprintf "%.0f" x) model.Model.peaks);
      ];
    Table.add_row s [ "IC latency"; Table.fmt_float model.Model.ic_latency ];
    Table.add_row s [ "MC latency"; Table.fmt_float model.Model.mc_latency ];
    Table.add_row s [ "prefetch distance"; string_of_int model.Model.distance ];
    [ t; s ]
