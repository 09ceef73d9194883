module Table = Aptget_util.Table
module Machine = Aptget_machine.Machine
module Hierarchy = Aptget_cache.Hierarchy
module Pipeline = Aptget_core.Pipeline
module Workload = Aptget_workloads.Workload
module Micro = Aptget_workloads.Micro
module Hashjoin = Aptget_workloads.Hashjoin
module Profiler = Aptget_profile.Profiler
module Model = Aptget_profile.Model
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject

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
      ~name:"HJ8-abl" ()
  else Hashjoin.workload ~params:Hashjoin.hj8_params ~name:"HJ8-abl" ()

(* Only the analysis options vary, so one sampled run per workload,
   also the default machine's baseline, is re-fitted once per option
   value; [row v speedup profile] renders value [v]'s row. *)
let refit_sweep w ~options values row =
  let r, sampler = Pipeline.sampled w in
  let base = Lab.check r.Pipeline.tenant in
  List.iter
    (fun v ->
      match Pipeline.refit ~options:(options v) ~sampler r with
      | None -> failwith (w.Workload.name ^ ": profile analysis failed")
      | Some prof ->
        let m = Lab.check (Pipeline.with_hints ~hints:prof.Profiler.hints w) in
        row v (Pipeline.speedup ~baseline:base m) prof)
    values

let peak_finder lab =
  let t =
    Table.create
      ~title:
        "Ablation: peak finder — CWT ridge lines vs naive smoothed argmax"
      ~header:[ "workload"; "finder"; "chosen distance(s)"; "speedup" ]
  in
  let ws = [ micro_w lab ~inner:256; hj_w lab ] in
  List.iter
    (fun w ->
      refit_sweep w
        ~options:(fun (_, finder) -> { Profiler.default_options with Profiler.finder })
        [ ("cwt", Model.Cwt); ("naive", Model.Naive) ]
        (fun (label, _) s prof ->
          let ds =
            String.concat ","
              (List.map
                 (fun (h : Aptget_pass.hint) -> string_of_int h.Aptget_pass.distance)
                 prof.Profiler.hints)
          in
          Table.add_row t [ w.Workload.name; label; ds; Table.fmt_speedup s ]))
    ws;
  [ t ]

(* Sweep of Equation (2)'s k over {1, 3, 5, 8}. *)
let k_constant lab =
  let t =
    Table.create
      ~title:"Ablation: Equation (2) constant k (site decision threshold)"
      ~header:[ "workload"; "k"; "sites chosen"; "speedup" ]
  in
  let ws = [ micro_w lab ~inner:4; hj_w lab ] in
  List.iter
    (fun w ->
      refit_sweep w
        ~options:(fun k -> { Profiler.default_options with Profiler.k })
        [ 1; 3; 5; 8 ]
        (fun k s prof ->
          let sites =
            String.concat ","
              (List.map
                 (fun (h : Aptget_pass.hint) ->
                   Inject.site_to_string h.Aptget_pass.site)
                 prof.Profiler.hints)
          in
          Table.add_row t
            [ w.Workload.name; string_of_int k; sites; Table.fmt_speedup s ]))
    ws;
  [ t ]

let mshr lab =
  let t =
    Table.create
      ~title:"Ablation: fill-buffer (MSHR) capacity vs prefetching gains"
      ~header:[ "MSHRs"; "baseline cycles"; "APT-GET cycles"; "speedup"; "dropped" ]
  in
  let w = micro_w lab ~inner:256 in
  List.iter
    (fun capacity ->
      let config =
        {
          Machine.default_config with
          Machine.hierarchy =
            { Hierarchy.default_config with Hierarchy.mshr_capacity = capacity };
        }
      in
      let base, prof =
        Pipeline.profiled
          ~options:{ Profiler.default_options with Profiler.machine = config }
          w
      in
      let base = Lab.check base in
      let m =
        Lab.check (Pipeline.with_hints ~config ~hints:prof.Profiler.hints w)
      in
      Table.add_row t
        [
          string_of_int capacity;
          string_of_int base.Pipeline.outcome.Machine.cycles;
          string_of_int m.Pipeline.outcome.Machine.cycles;
          Table.fmt_speedup (Pipeline.speedup ~baseline:base m);
          string_of_int
            m.Pipeline.outcome.Machine.counters.Hierarchy.sw_prefetch_dropped;
        ])
    [ 2; 4; 8; 16; 32 ];
  [ t ]

(* Bound-clamped vs unclamped prefetch indices. *)
let clamping lab =
  let t =
    Table.create
      ~title:
        "Ablation: clamping the advanced induction value (Listing 4 select) \
         vs leaving it unclamped"
      ~header:[ "distance"; "variant"; "speedup"; "verified" ]
  in
  let w = micro_w lab ~inner:64 in
  let base = Lab.baseline lab w in
  List.iter
    (fun d ->
      List.iter
        (fun (label, clamp) ->
          let transform (inst : Workload.instance) =
            match
              Inject.inject ~clamp inst.Workload.func
                {
                  Inject.load_pc = Micro.delinquent_load_pc inst;
                  distance = d;
                  site = Inject.Inner;
                  sweep = 1;
                }
            with
            | Ok i -> ([ i ], [])
            | Error e -> failwith e
          in
          let m = (Pipeline.measure ~transform w).Pipeline.tenant in
          let verified =
            match m.Pipeline.verified with Ok () -> "ok" | Error _ -> "FAILED"
          in
          Table.add_row t
            [
              string_of_int d;
              label;
              Table.fmt_speedup (Pipeline.speedup ~baseline:base m);
              verified;
            ])
        [ ("clamped", true); ("unclamped", false) ])
    [ 8; 32 ];
  [ t ]

let sweep lab =
  let t =
    Table.create
      ~title:
        "Ablation: outer-site sweep width (inner iterations prefetched per \
         outer-loop prefetch) on the 8-slot hash join"
      ~header:[ "sweep"; "speedup"; "instr overhead" ]
  in
  let w = hj_w lab in
  let base = Lab.baseline lab w in
  let prof = Lab.profiled lab w in
  List.iter
    (fun sweep ->
      let hints =
        List.map
          (fun (h : Aptget_pass.hint) ->
            { h with Aptget_pass.site = Inject.Outer; sweep })
          prof.Profiler.hints
      in
      let m = Lab.check (Pipeline.with_hints ~hints w) in
      Table.add_row t
        [
          string_of_int sweep;
          Table.fmt_speedup (Pipeline.speedup ~baseline:base m);
          Table.fmt_float (Pipeline.instruction_overhead ~baseline:base m) ^ "x";
        ])
    [ 1; 2; 4; 8 ];
  [ t ]

let core_model lab =
  let t =
    Table.create
      ~title:
        "Ablation: core model — blocking (reproduction default) vs \

         stall-on-use with a 64-entry window (out-of-order stand-in, \

         no speculation)"
      ~header:
        [ "workload"; "core"; "baseline cycles"; "APT-GET cycles"; "speedup" ]
  in
  let ws = [ micro_w lab ~inner:256; hj_w lab ] in
  List.iter
    (fun w ->
      List.iter
        (fun (label, config) ->
          let base, prof =
            Pipeline.profiled
              ~options:{ Profiler.default_options with Profiler.machine = config }
              w
          in
          let base = Lab.check base in
          let m =
            Lab.check (Pipeline.with_hints ~config ~hints:prof.Profiler.hints w)
          in
          Table.add_row t
            [
              w.Workload.name;
              label;
              string_of_int base.Pipeline.outcome.Machine.cycles;
              string_of_int m.Pipeline.outcome.Machine.cycles;
              Table.fmt_speedup (Pipeline.speedup ~baseline:base m);
            ])
        [
          ("blocking", Machine.default_config);
          ("stall-on-use", Machine.stall_on_use_config ());
        ])
    ws;
  [ t ]

let cse lab =
  let t =
    Table.create
      ~title:
        "Ablation: local CSE cleanup after injection (stands in for LLVM's \
         scalar optimisations)"
      ~header:
        [ "workload"; "variant"; "instr overhead"; "speedup" ]
  in
  let ws = [ micro_w lab ~inner:256; hj_w lab ] in
  List.iter
    (fun w ->
      let base = Lab.baseline lab w in
      let prof = Lab.profiled lab w in
      List.iter
        (fun (label, cse) ->
          let m =
            Lab.check (Pipeline.with_hints ~cse ~hints:prof.Profiler.hints w)
          in
          Table.add_row t
            [
              w.Workload.name;
              label;
              Table.fmt_float (Pipeline.instruction_overhead ~baseline:base m)
              ^ "x";
              Table.fmt_speedup (Pipeline.speedup ~baseline:base m);
            ])
        [ ("no cse", false); ("cse", true) ])
    ws;
  [ t ]

let bandwidth lab =
  let t =
    Table.create
      ~title:
        "Ablation: DRAM bandwidth bound (min cycles between fills; 0 = \
         unlimited, the reproduction default)"
      ~header:[ "min gap"; "baseline cycles"; "APT-GET cycles"; "speedup" ]
  in
  let w = micro_w lab ~inner:256 in
  List.iter
    (fun gap ->
      let config =
        {
          Machine.default_config with
          Machine.hierarchy =
            { Hierarchy.default_config with Hierarchy.dram_min_gap = gap };
        }
      in
      let base, prof =
        Pipeline.profiled
          ~options:{ Profiler.default_options with Profiler.machine = config }
          w
      in
      let base = Lab.check base in
      let m =
        Lab.check (Pipeline.with_hints ~config ~hints:prof.Profiler.hints w)
      in
      Table.add_row t
        [
          string_of_int gap;
          string_of_int base.Pipeline.outcome.Machine.cycles;
          string_of_int m.Pipeline.outcome.Machine.cycles;
          Table.fmt_speedup (Pipeline.speedup ~baseline:base m);
        ])
    [ 0; 4; 16; 64 ];
  [ t ]

let all lab =
  peak_finder lab @ k_constant lab @ mshr lab @ clamping lab @ sweep lab
  @ core_model lab @ cse lab @ bandwidth lab
