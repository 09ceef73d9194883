(* Database hash-join tuning (HJ2 vs HJ8 of the paper).

   A probe-side hash join is memory-bound on the bucket loads. The
   right prefetch strategy depends on the bucket size: with 8 slots
   per bucket the probe loop's inner trip count is 8, so inner-loop
   prefetching never runs ahead (Eq. 2) and APT-GET hoists the slice
   into the tuple loop, sweeping the bucket's slots.

   Run with: dune exec examples/hash_join_tuning.exe *)

module Pipeline = Aptget_core.Pipeline
module Workload = Aptget_workloads.Workload
module Hashjoin = Aptget_workloads.Hashjoin
module Profiler = Aptget_profile.Profiler
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject
module Table = Aptget_util.Table

let () =
  let t =
    Table.create ~title:"hash-join probe: prefetch strategy by bucket size"
      ~header:
        [ "variant"; "baseline cycles"; "site chosen"; "sweep"; "distance";
          "inner-forced"; "outer-forced"; "APT-GET" ]
  in
  List.iter
    (fun (name, params) ->
      let w = Hashjoin.workload ~params ~name () in
      Printf.printf "running %s...\n%!" name;
      let base, prof = Pipeline.profiled w in
      let base = Pipeline.verified_exn base in
      let hint = List.hd prof.Profiler.hints in
      let inner =
        Pipeline.verified_exn
          (Pipeline.with_hints
             ~hints:(Pipeline.force_site Inject.Inner prof.Profiler.hints)
             w)
      in
      let outer =
        Pipeline.verified_exn
          (Pipeline.with_hints
             ~hints:(Pipeline.force_site Inject.Outer prof.Profiler.hints)
             w)
      in
      let apt =
        Pipeline.verified_exn (Pipeline.with_hints ~hints:prof.Profiler.hints w)
      in
      Table.add_row t
        [
          name;
          string_of_int base.Pipeline.outcome.Aptget_machine.Machine.cycles;
          Inject.site_to_string hint.Aptget_pass.site;
          string_of_int hint.Aptget_pass.sweep;
          string_of_int hint.Aptget_pass.distance;
          Table.fmt_speedup (Pipeline.speedup ~baseline:base inner);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base outer);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base apt);
        ])
    [ ("HJ2 (2 slots)", Hashjoin.hj2_params); ("HJ8 (8 slots)", Hashjoin.hj8_params) ];
  Table.print t
