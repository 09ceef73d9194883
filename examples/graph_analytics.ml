(* Graph analytics: the paper's motivating domain.

   Builds a scaled web-Google stand-in, runs BFS and PageRank through
   the whole pipeline (baseline -> A&J -> APT-GET), and shows where
   APT-GET decided to put each prefetch and why.

   Run with: dune exec examples/graph_analytics.exe *)

module Pipeline = Aptget_core.Pipeline
module Workload = Aptget_workloads.Workload
module Suite = Aptget_workloads.Suite
module Machine = Aptget_machine.Machine
module Profiler = Aptget_profile.Profiler
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject
module Table = Aptget_util.Table
module Datasets = Aptget_graph.Datasets
module Csr = Aptget_graph.Csr

let workloads =
  [
    Suite.bfs ~name:"BFS/web-Google"
      ~graph:(fun () -> Csr.symmetrize (Datasets.build (Option.get (Datasets.find "WG"))))
      ~input:"web-Google (scaled)";
    Suite.pr ~name:"PR/web-Google"
      ~graph:(fun () -> Csr.symmetrize (Datasets.build (Option.get (Datasets.find "WG"))))
      ~input:"web-Google (scaled)";
  ]

let () =
  let t =
    Table.create ~title:"graph analytics under the three builds"
      ~header:[ "kernel"; "baseline MPKI"; "A&J"; "APT-GET"; "APT-GET hints" ]
  in
  List.iter
    (fun w ->
      Printf.printf "running %s...\n%!" w.Workload.name;
      let base, prof = Pipeline.profiled w in
      let base = Pipeline.verified_exn base in
      let aj = Pipeline.verified_exn (Pipeline.aj w) in
      let apt =
        Pipeline.verified_exn (Pipeline.with_hints ~hints:prof.Profiler.hints w)
      in
      let hints =
        String.concat ", "
          (List.map
             (fun (h : Aptget_pass.hint) ->
               Printf.sprintf "pc%d:d%d/%s" h.Aptget_pass.load_pc
                 h.Aptget_pass.distance
                 (Inject.site_to_string h.Aptget_pass.site))
             prof.Profiler.hints)
      in
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_float (Machine.mpki base.Pipeline.outcome);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base aj);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base apt);
          hints;
        ])
    workloads;
  Table.print t;
  print_endline
    "Note the outer-site hints: vertex degrees are small, so prefetching\n\
     inside the neighbour loop cannot run far enough ahead (Eq. 2) — the\n\
     slice is re-anchored one vertex ahead in the outer loop instead."
