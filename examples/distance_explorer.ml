(* Distance explorer: the paper's §2 study as an interactive plot.

   Sweeps the prefetch distance on the microbenchmark, prints an ASCII
   speedup curve, and marks the distance APT-GET's analytical model
   derived from a single LBR profile — the point of the paper is that
   the mark lands at (or near) the curve's peak without the sweep.

   Run with: dune exec examples/distance_explorer.exe -- [INNER] [COMPLEXITY] *)

module Machine = Aptget_machine.Machine
module Pipeline = Aptget_core.Pipeline
module Micro = Aptget_workloads.Micro
module Workload = Aptget_workloads.Workload
module Profiler = Aptget_profile.Profiler
module Aptget_pass = Aptget_passes.Aptget_pass

let () =
  let inner = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 256 in
  let complexity =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 0
  in
  let params =
    {
      Micro.default_params with
      Micro.total = 131_072;
      inner;
      complexity;
      table_words = 1 lsl 22;
    }
  in
  let w =
    Micro.workload ~params ~name:(Printf.sprintf "micro-i%d-c%d" inner complexity) ()
  in
  Printf.printf "microbenchmark: INNER=%d COMPLEXITY=%d\n%!" inner complexity;
  let base, prof = Pipeline.profiled w in
  let base = Pipeline.verified_exn base in
  let chosen =
    match prof.Profiler.hints with
    | h :: _ -> h.Aptget_pass.distance
    | [] -> -1
  in
  let distances = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  Printf.printf "\n%8s  %-8s\n" "distance" "speedup";
  List.iter
    (fun d ->
      let m = Pipeline.verified_exn (Pipeline.aj ~distance:d w) in
      let s = Pipeline.speedup ~baseline:base m in
      let bar = String.make (max 1 (int_of_float (s *. 12.))) '#' in
      Printf.printf "%8d  %5.2fx %s\n%!" d s bar)
    distances;
  let apt = Pipeline.verified_exn (Pipeline.with_hints ~hints:prof.Profiler.hints w) in
  Printf.printf "\nAPT-GET chose distance %d from one profile -> %.2fx\n" chosen
    (Pipeline.speedup ~baseline:base apt)
