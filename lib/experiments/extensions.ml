module Table = Aptget_util.Table
module Machine = Aptget_machine.Machine
module Hierarchy = Aptget_cache.Hierarchy
module Pipeline = Aptget_core.Pipeline
module Workload = Aptget_workloads.Workload
module Micro = Aptget_workloads.Micro
module Profiler = Aptget_profile.Profiler
module Aptget_pass = Aptget_passes.Aptget_pass
module Loops = Aptget_passes.Loops
module Costmodel = Aptget_passes.Costmodel
module Layout = Aptget_ir.Layout

let micro_w lab ~complexity =
  let p = { (Lab.micro_params lab) with Micro.complexity } in
  Micro.workload ~params:p ~name:(Printf.sprintf "micro-c%d" complexity) ()

let cost_model lab =
  let t =
    Table.create
      ~title:
        "Extension (paper §2.5): static cost-model distance vs LBR distance \
         under varying (input-dependent) work complexity"
      ~header:
        [ "complexity"; "static IC est."; "measured IC"; "IC error"; "static D";
          "LBR D"; "static speedup"; "LBR speedup" ]
  in
  let dram =
    Machine.default_config.Machine.hierarchy.Hierarchy.dram_latency
  in
  List.iter
    (fun complexity ->
      let w = micro_w lab ~complexity in
      let base = Lab.baseline lab w in
      (* Static estimate: the loop containing the indirect load, with
         the Work amount unknown at compile time. *)
      let inst = w.Workload.build () in
      let f = inst.Workload.func in
      let loops = Loops.analyze f in
      let pc = Micro.delinquent_load_pc inst in
      let li =
        Option.get (Loops.loop_containing loops (Layout.block_of_pc pc))
      in
      let static_ic = Costmodel.loop_iteration_cost f loops.(li) in
      let static_d = Costmodel.static_distance ~dram_latency:dram f loops.(li) in
      let m_static = Lab.static_distance lab ~distance:static_d w in
      let apt = Lab.aptget lab w in
      let prof = Lab.profiled lab w in
      let lbr_d =
        match prof.Profiler.hints with
        | h :: _ -> string_of_int h.Aptget_pass.distance
        | [] -> "-"
      in
      let measured_ic =
        List.find_map
          (fun (p : Profiler.load_profile) ->
            Option.map (fun m -> m.Aptget_profile.Model.ic_latency) p.Profiler.model)
          prof.Profiler.profiles
      in
      let ic_cell, err_cell =
        match measured_ic with
        | Some ic ->
          ( Printf.sprintf "%.0f" ic,
            Table.fmt_pct (abs_float (float_of_int static_ic -. ic) /. ic) )
        | None -> ("-", "-")
      in
      Table.add_row t
        [
          string_of_int complexity;
          string_of_int static_ic;
          ic_cell;
          err_cell;
          string_of_int static_d;
          lbr_d;
          Table.fmt_speedup (Pipeline.speedup ~baseline:base m_static);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base apt);
        ])
    [ 0; 30; 120 ];
  [ t ]

let overhead_filter lab =
  let t =
    Table.create
      ~title:
        "Extension (paper §4.8): conditional injection — drop hints whose \
         predicted instruction overhead exceeds the measured IC"
      ~header:
        [ "workload"; "APT-GET"; "APT-GET+filter"; "hints kept"; "instr overhead" ]
  in
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let apt = Lab.aptget lab w in
      let options =
        { Profiler.default_options with Profiler.max_overhead_frac = 1.0 }
      in
      (* the filter re-analyses the lab's profile: no second run *)
      let prof =
        Profiler.filter_overhead options (w.Workload.build ()).Workload.func
          (Lab.profiled lab w)
      in
      let filtered =
        Lab.with_hints lab ~hints:prof.Profiler.hints w
      in
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_speedup (Pipeline.speedup ~baseline:base apt);
          Table.fmt_speedup (Pipeline.speedup ~baseline:base filtered);
          Printf.sprintf "%d/%d"
            (List.length prof.Profiler.hints)
            (List.length prof.Profiler.profiles);
          Table.fmt_float (Pipeline.instruction_overhead ~baseline:base filtered)
          ^ "x";
        ])
    (Lab.suite lab);
  [ t ]

(* Baseline and APT-GET with the hardware prefetchers on and off: how
   much of each app's gain is contested between HW and SW prefetching
   (left as future work in §4.4). *)
let hw_sw_interplay lab =
  let t =
    Table.create
      ~title:
        "Extension (paper §4.4): hardware/software prefetch interplay \
         (cycles normalised to baseline with HW prefetch ON)"
      ~header:
        [ "workload"; "base HW-off"; "base HW-on"; "APT-GET HW-off"; "APT-GET HW-on" ]
  in
  let config_off =
    {
      Machine.default_config with
      Machine.hierarchy =
        { Hierarchy.default_config with Hierarchy.hw_prefetch = false };
    }
  in
  List.iter
    (fun w ->
      let base_on = Lab.baseline lab w in
      let base_off, prof_off =
        Pipeline.profiled
          ~options:
            { Profiler.default_options with Profiler.machine = config_off }
          w
      in
      let base_off = Lab.check base_off in
      let apt_on = Lab.aptget lab w in
      let apt_off =
        Lab.with_hints lab ~config:config_off ~hints:prof_off.Profiler.hints w
      in
      let rel m = Pipeline.speedup ~baseline:base_on m in
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_speedup (rel base_off);
          Table.fmt_speedup (rel base_on);
          Table.fmt_speedup (rel apt_off);
          Table.fmt_speedup (rel apt_on);
        ])
    (Lab.nested_suite lab);
  [ t ]

let all lab = cost_model lab @ overhead_filter lab @ hw_sw_interplay lab
