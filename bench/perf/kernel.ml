(* One kernel of a benchmark workload together with the profile the
   benchmark took of it, plus the helpers every workload shares: the
   layer spans, the split profiling run and the semantic check. *)

module Workload = Aptget_workloads.Workload
module Machine = Aptget_machine.Machine
module Profiler = Aptget_profile.Profiler
module Sampler = Aptget_pmu.Sampler
module Hierarchy = Aptget_cache.Hierarchy
module Trace = Aptget_obs.Trace

type t = {
  w : Workload.t;
  config : Machine.config;
  prof : Profiler.t;  (** the split profile: hints, load profiles *)
  sampler : Sampler.t;  (** the sampler that observed [func] *)
  func : Ir.func;  (** the unhinted kernel [sampler] observed *)
}

let name k = k.w.Workload.name
let hints k = k.prof.Profiler.hints

(* Spans are opened only here, in the benchmark, around calls into
   each layer's public functions. [op] is the root of one measured
   operation: a pass for the simulator workloads, a request for serve. *)
let op_span = "op"

let layer_spans =
  [
    "workloads.build";
    "pmu.sampled_exec";
    "profile.refit";
    "passes.inject";
    "ir.verify";
    "machine.exec";
    "machine.corun";
    "workloads.verify";
    "serve.call";
  ]

let span name f = Trace.with_span ~name f

let build (w : Workload.t) = span "workloads.build" w.Workload.build

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let failure_text = function
  | Check_failed s -> s
  | e -> Printexc.to_string e

let verify ~what (inst : Workload.instance) (o : Machine.outcome) =
  match
    span "workloads.verify" (fun () ->
        inst.Workload.verify inst.Workload.mem o.Machine.ret)
  with
  | Ok () -> ()
  | Error e -> fail "%s: semantic check failed: %s" what e

let execute ?sampler ~config (inst : Workload.instance) =
  Machine.execute ~config ?sampler ~args:inst.Workload.args
    ~mem:inst.Workload.mem inst.Workload.func

let new_sampler () =
  let o = Profiler.default_options in
  Sampler.create ~lbr_period:o.Profiler.lbr_period
    ~pebs_period:o.Profiler.pebs_period ()

let profile_options config =
  { Profiler.default_options with Profiler.machine = config }

(* The profiling run split into its two layers — a sampled execute
   (machine + pmu) and the analysis ([Profiler.refit]) — so each can be
   timed on its own. It must give exactly [Pipeline.profile]'s hints;
   the workloads check that. *)
let profile ~config (w : Workload.t) =
  let inst = build w in
  let sampler = new_sampler () in
  let o =
    span "pmu.sampled_exec" (fun () -> execute ~sampler ~config inst)
  in
  verify ~what:(w.Workload.name ^ " profiling run") inst o;
  let prof =
    span "profile.refit" (fun () ->
        Profiler.refit ~options:(profile_options config) ~baseline:o sampler
          inst.Workload.func)
  in
  { w; config; prof; sampler; func = inst.Workload.func }

(* The hints as the document a serve request carries. *)
let hints_doc k = Profiler.to_doc ~options:(profile_options k.config) k.prof

(* The simulated result of a run, rendered so that a change to any
   counter changes the text: the input of the counters CRC a
   simulator-only change must leave unchanged. *)
let outcome_text (o : Machine.outcome) =
  let c = o.Machine.counters in
  String.concat " "
    (List.map string_of_int
       [
         o.Machine.cycles;
         o.Machine.instructions;
         o.Machine.dyn_loads;
         o.Machine.dyn_prefetches;
         Option.value ~default:min_int o.Machine.ret;
         c.Hierarchy.demand_loads;
         c.Hierarchy.hits_l1;
         c.Hierarchy.hits_l2;
         c.Hierarchy.hits_llc;
         c.Hierarchy.dram_fills_demand;
         c.Hierarchy.load_hit_pre_sw_pf;
         c.Hierarchy.offcore_all_data_rd;
         c.Hierarchy.offcore_demand_data_rd;
         c.Hierarchy.sw_prefetch_issued;
         c.Hierarchy.sw_prefetch_useless;
         c.Hierarchy.sw_prefetch_dropped;
         c.Hierarchy.hw_prefetch_issued;
         c.Hierarchy.stall_cycles_l2;
         c.Hierarchy.stall_cycles_llc;
         c.Hierarchy.stall_cycles_dram;
         c.Hierarchy.sw_prefetch_early_evict;
       ])
  ^ "\n"
