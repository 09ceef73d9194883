module Table = Aptget_util.Table
module Stats = Aptget_util.Stats
module Machine = Aptget_machine.Machine
module Hierarchy = Aptget_cache.Hierarchy
module Pipeline = Aptget_core.Pipeline
module Config = Aptget_core.Config
module Workload = Aptget_workloads.Workload
module Suite = Aptget_workloads.Suite
module Hashjoin = Aptget_workloads.Hashjoin
module Datasets = Aptget_graph.Datasets
module Profiler = Aptget_profile.Profiler
module Inject = Aptget_passes.Inject

let table2 _lab =
  let t =
    Table.create ~title:"Table 2: the (simulated) machine configuration"
      ~header:[ "Component"; "Parameters" ]
  in
  List.iter (fun (c, p) -> Table.add_row t [ c; p ]) (Config.rows ());
  let note = Table.create ~title:Config.scale_note ~header:[ "" ] in
  [ t; note ]

let table3 lab =
  let t =
    Table.create ~title:"Table 3: the list of applications"
      ~header:[ "App"; "Input"; "Description" ]
  in
  List.iter
    (fun (w : Workload.t) ->
      Table.add_row t [ w.Workload.app; w.Workload.input; w.Workload.description ])
    (Lab.suite lab);
  [ t ]

let table4 _lab =
  let t =
    Table.create
      ~title:
        "Table 4: graph data-sets (paper's SNAP sizes and this repo's scaled \
         synthetic stand-ins)"
      ~header:
        [ "Data-set"; "#Vertices"; "#Edges"; "scaled #V"; "generator family" ]
  in
  List.iter
    (fun (s : Datasets.spec) ->
      Table.add_row t
        [
          Printf.sprintf "%s (%s)" s.Datasets.name s.Datasets.short;
          string_of_int s.Datasets.paper_vertices;
          string_of_int s.Datasets.paper_edges;
          string_of_int s.Datasets.scaled_vertices;
          (match s.Datasets.family with
          | `Web -> "preferential (web)"
          | `P2p -> "uniform (p2p)"
          | `Road -> "grid+shortcuts (road)"
          | `Social -> "preferential (social)");
        ])
    Datasets.all;
  [ t ]

(* Each figure prewarms its full measurement list up front —
   [Lab.run_batch] fans the missing ones across domains — and then
   renders serially through the memoized getters, so the table is
   byte-identical to a serial run's. *)

let fig5 lab =
  Lab.run_batch lab (List.map (fun w -> Lab.Baseline w) (Lab.suite lab));
  let t =
    Table.create
      ~title:
        "Figure 5: fraction of cycles stalled on the memory system \
         (non-prefetching baseline)"
      ~header:[ "App"; "L3 stalls"; "DRAM stalls"; "total" ]
  in
  let totals = ref [] in
  List.iter
    (fun w ->
      let m = Lab.baseline lab w in
      let c = m.Pipeline.outcome.Machine.counters in
      let cyc = float_of_int m.Pipeline.outcome.Machine.cycles in
      let llc = float_of_int c.Hierarchy.stall_cycles_llc /. cyc in
      let dram = float_of_int c.Hierarchy.stall_cycles_dram /. cyc in
      totals := (llc +. dram) :: !totals;
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_pct llc;
          Table.fmt_pct dram;
          Table.fmt_pct (llc +. dram);
        ])
    (Lab.suite lab);
  Table.add_row t
    [
      "average";
      "";
      "";
      Table.fmt_pct (Stats.mean (Array.of_list !totals));
    ];
  [ t ]

let prewarm_headline lab ws =
  Lab.run_batch lab
    (List.concat_map
       (fun w -> [ Lab.Baseline w; Lab.Aj { distance = None; w }; Lab.Aptget w ])
       ws)

let fig6 lab =
  prewarm_headline lab (Lab.suite lab);
  let t =
    Table.create
      ~title:
        "Figure 6: execution-time speedup over the non-prefetching baseline"
      ~header:[ "App"; "Ainsworth & Jones"; "APT-GET" ]
  in
  let ajs = ref [] and apts = ref [] in
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let aj = Lab.aj lab w in
      let apt = Lab.aptget lab w in
      let s_aj = Pipeline.speedup ~baseline:base aj in
      let s_apt = Pipeline.speedup ~baseline:base apt in
      ajs := s_aj :: !ajs;
      apts := s_apt :: !apts;
      Table.add_row t
        [ w.Workload.name; Table.fmt_speedup s_aj; Table.fmt_speedup s_apt ])
    (Lab.suite lab);
  Table.add_row t
    [
      "geomean";
      Table.fmt_speedup (Stats.geomean (Array.of_list !ajs));
      Table.fmt_speedup (Stats.geomean (Array.of_list !apts));
    ];
  [ t ]

let fig7 lab =
  prewarm_headline lab (Lab.suite lab);
  let t =
    Table.create
      ~title:
        "Figure 7: LLC MPKI (offcore_requests.demand_data_rd per kilo \
         instruction; lower is better)"
      ~header:
        [ "App"; "baseline"; "A&J"; "APT-GET"; "A&J redu."; "APT-GET redu." ]
  in
  let r_aj = ref [] and r_apt = ref [] in
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let aj = Lab.aj lab w in
      let apt = Lab.aptget lab w in
      let red_aj = Pipeline.mpki_reduction ~baseline:base aj in
      let red_apt = Pipeline.mpki_reduction ~baseline:base apt in
      r_aj := red_aj :: !r_aj;
      r_apt := red_apt :: !r_apt;
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_float (Machine.mpki base.Pipeline.outcome);
          Table.fmt_float (Machine.mpki aj.Pipeline.outcome);
          Table.fmt_float (Machine.mpki apt.Pipeline.outcome);
          Table.fmt_pct red_aj;
          Table.fmt_pct red_apt;
        ])
    (Lab.suite lab);
  Table.add_row t
    [
      "average";
      "";
      "";
      "";
      Table.fmt_pct (Stats.mean (Array.of_list !r_aj));
      Table.fmt_pct (Stats.mean (Array.of_list !r_apt));
    ];
  [ t ]

(* The paper's per-figure bars carry one entry per (app, input); this
   sweep runs BFS across every Table-4 dataset stand-in, the axis the
   main suite samples only twice. *)
let datasets lab =
  let t =
    Table.create
      ~title:
        "Per-dataset study: BFS over every Table-4 graph stand-in \
         (speedup over each graph's baseline)"
      ~header:[ "data-set"; "#V (scaled)"; "avg deg"; "A&J"; "APT-GET" ]
  in
  let specs =
    if Lab.quick lab then
      [ Option.get (Datasets.find "P2P"); Option.get (Datasets.find "LBE") ]
    else Datasets.all
  in
  let entries =
    List.map
      (fun (spec : Datasets.spec) ->
        let graph () = Aptget_graph.Csr.symmetrize (Datasets.build spec) in
        let w =
          Suite.bfs
            ~name:("BFS-" ^ spec.Datasets.short)
            ~graph ~input:spec.Datasets.name
        in
        (spec, graph, w))
      specs
  in
  prewarm_headline lab (List.map (fun (_, _, w) -> w) entries);
  List.iter
    (fun ((spec : Datasets.spec), graph, w) ->
      let g = graph () in
      let base = Lab.baseline lab w in
      let aj = Lab.aj lab w in
      let apt = Lab.aptget lab w in
      Table.add_row t
        [
          spec.Datasets.name;
          string_of_int g.Aptget_graph.Csr.n;
          Printf.sprintf "%.1f" (Aptget_graph.Csr.avg_degree g);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base aj);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base apt);
        ])
    entries;
  [ t ]

let exhaustive_distances = [ 1; 2; 4; 8; 16; 32; 64; 128 ]

let fig8 lab =
  Lab.run_batch lab
    (List.concat_map
       (fun w ->
         (Lab.Baseline w :: Lab.Aptget w
         :: List.map (fun d -> Lab.Static { distance = d; w }) exhaustive_distances))
       (Lab.suite lab));
  let t =
    Table.create
      ~title:
        "Figure 8: LBR-selected prefetch distance vs the best of the \
         exhaustive sweep D={1..128}"
      ~header:
        [ "App"; "best static D"; "best static"; "APT-GET"; "APT-GET/best" ]
  in
  let lbrs = ref [] and bests = ref [] in
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let best_d, best =
        List.fold_left
          (fun (bd, bm) d ->
            let m = Lab.static_distance lab ~distance:d w in
            match bm with
            | Some b
              when Pipeline.speedup ~baseline:base b
                   >= Pipeline.speedup ~baseline:base m ->
              (bd, bm)
            | _ -> (d, Some m))
          (0, None) exhaustive_distances
      in
      let best = Option.get best in
      let apt = Lab.aptget lab w in
      let s_best = Pipeline.speedup ~baseline:base best in
      let s_apt = Pipeline.speedup ~baseline:base apt in
      lbrs := s_apt :: !lbrs;
      bests := s_best :: !bests;
      Table.add_row t
        [
          w.Workload.name;
          string_of_int best_d;
          Table.fmt_speedup s_best;
          Table.fmt_speedup s_apt;
          Table.fmt_float (s_apt /. s_best);
        ])
    (Lab.suite lab);
  Table.add_row t
    [
      "geomean";
      "";
      Table.fmt_speedup (Stats.geomean (Array.of_list !bests));
      Table.fmt_speedup (Stats.geomean (Array.of_list !lbrs));
    ];
  [ t ]

let fig9 lab =
  let distances = [ 4; 16; 64 ] in
  Lab.run_batch lab
    (List.concat_map
       (fun w ->
         (Lab.Baseline w :: Lab.Aptget w
         :: List.map (fun d -> Lab.Static { distance = d; w }) distances))
       (Lab.suite lab));
  let t =
    Table.create
      ~title:
        "Figure 9: static prefetch-distances vs the LBR-selected distance \
         (speedup over baseline)"
      ~header:
        ("App"
        :: (List.map (fun d -> Printf.sprintf "D=%d" d) distances @ [ "LBR" ]))
  in
  let acc = Array.make (List.length distances + 1) [] in
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let statics =
        List.map
          (fun d ->
            Pipeline.speedup ~baseline:base (Lab.static_distance lab ~distance:d w))
          distances
      in
      let apt = Pipeline.speedup ~baseline:base (Lab.aptget lab w) in
      List.iteri (fun i s -> acc.(i) <- s :: acc.(i)) (statics @ [ apt ]);
      Table.add_row t
        (w.Workload.name :: List.map Table.fmt_speedup (statics @ [ apt ])))
    (Lab.suite lab);
  Table.add_row t
    ("geomean"
    :: Array.to_list
         (Array.map (fun l -> Table.fmt_speedup (Stats.geomean (Array.of_list l))) acc));
  [ t ]

let fig10 lab =
  Lab.run_batch lab
    (List.concat_map
       (fun w ->
         [
           Lab.Baseline w;
           Lab.Site { site = Inject.Inner; w };
           Lab.Site { site = Inject.Outer; w };
           Lab.Aptget w;
         ])
       (Lab.nested_suite lab));
  let t =
    Table.create
      ~title:
        "Figure 10: injection-site study on the nested-loop applications \
         (speedup over baseline)"
      ~header:[ "App"; "inner site"; "outer site"; "APT-GET choice" ]
  in
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let inner = Lab.forced_site lab Inject.Inner w in
      let outer = Lab.forced_site lab Inject.Outer w in
      let apt = Lab.aptget lab w in
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_speedup (Pipeline.speedup ~baseline:base inner);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base outer);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base apt);
        ])
    (Lab.nested_suite lab);
  [ t ]

let fig11 lab =
  prewarm_headline lab (Lab.suite lab);
  let t =
    Table.create
      ~title:
        "Figure 11: dynamic instruction overhead of injected prefetch slices \
         (executed instructions / baseline)"
      ~header:[ "App"; "A&J"; "APT-GET" ]
  in
  let ajs = ref [] and apts = ref [] in
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let aj = Lab.aj lab w in
      let apt = Lab.aptget lab w in
      let o_aj = Pipeline.instruction_overhead ~baseline:base aj in
      let o_apt = Pipeline.instruction_overhead ~baseline:base apt in
      ajs := o_aj :: !ajs;
      apts := o_apt :: !apts;
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_float o_aj ^ "x";
          Table.fmt_float o_apt ^ "x";
        ])
    (Lab.suite lab);
  Table.add_row t
    [
      "geomean";
      Table.fmt_float (Stats.geomean (Array.of_list !ajs)) ^ "x";
      Table.fmt_float (Stats.geomean (Array.of_list !apts)) ^ "x";
    ];
  [ t ]

let fig12 lab =
  let pairs =
    if Lab.quick lab then
      [
        ( Hashjoin.workload
            ~params:
              {
                Hashjoin.hj8_params with
                Hashjoin.n_build = 65_536;
                n_probe = 32_768;
                n_buckets = 1 lsl 14;
              }
            ~name:"HJ8-train" (),
          Hashjoin.workload
            ~params:
              {
                Hashjoin.hj8_params with
                Hashjoin.n_build = 65_536;
                n_probe = 32_768;
                n_buckets = 1 lsl 14;
                seed = 77;
              }
            ~name:"HJ8-test" () );
      ]
    else Suite.train_test
  in
  let t =
    Table.create
      ~title:
        "Figure 12: input sensitivity — hints profiled on the TRAIN input, \
         applied to both inputs (speedup over each input's baseline)"
      ~header:[ "App (train -> test)"; "TRAIN-DATA"; "TEST-DATA" ]
  in
  (* The cross-input runs are not memoizable (hints come from a
     different workload's profile), so this figure fans the whole
     per-pair body across domains; [Pool.run] returns rows in pair
     order, so rendering matches a serial run exactly. *)
  let rows =
    Aptget_util.Pool.run
      (fun (train_w, test_w) ->
        let prof = Lab.profiled lab train_w in
        let hints = prof.Profiler.hints in
        let base_train = Lab.baseline lab train_w in
        let base_test = Lab.baseline lab test_w in
        let m_train = Lab.with_hints lab ~hints train_w in
        let m_test = Lab.with_hints lab ~hints test_w in
        ( Printf.sprintf "%s -> %s" train_w.Workload.name test_w.Workload.name,
          Pipeline.speedup ~baseline:base_train m_train,
          Pipeline.speedup ~baseline:base_test m_test ))
      pairs
  in
  let trains = ref [] and tests = ref [] in
  List.iter
    (fun (name, s_train, s_test) ->
      trains := s_train :: !trains;
      tests := s_test :: !tests;
      Table.add_row t
        [ name; Table.fmt_speedup s_train; Table.fmt_speedup s_test ])
    rows;
  Table.add_row t
    [
      "geomean";
      Table.fmt_speedup (Stats.geomean (Array.of_list !trains));
      Table.fmt_speedup (Stats.geomean (Array.of_list !tests));
    ];
  [ t ]
