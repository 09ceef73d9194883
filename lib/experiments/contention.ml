(* Shared-LLC contention study: what happens to a solo-tuned profile
   when the tenant no longer owns the machine.

   Each tenant is measured four ways against a streaming cache-thrasher
   co-runner on the shared LLC/DRAM hierarchy ({!Aptget_machine.Corun}):

   - solo baseline and solo APT-GET (the numbers every other experiment
     reports);
   - co-run baseline: tenant and thrasher interleaved round-robin, no
     hints — how much the co-runner alone costs;
   - co-run with the *stale* solo-tuned hints: the deployed-binary
     scenario. The shared DRAM channel queues the thrasher's misses in
     front of the tenant's, so the solo distance is now too short and
     prefetches arrive late; the thrasher's LLC insertions also evict
     prefetched lines early via inclusion.
   - co-run online: the drift detector (PR 7) judges the stale plan
     from its counter windows, a re-fit from a sampler that rode along
     the *unhinted* co-run re-solves Eq. 1 under contention (its hint
     PCs address the unmodified kernel, so no remap is needed), and a
     regression guard admits the retuned plan only if it clears the
     floor — otherwise the tenant is pinned to its co-run baseline.

   All co-run simulations are serial and the scheduler interleave is
   deterministic, so every table and BENCH row is byte-identical
   across --jobs and across engines (every engine steps one block at
   a time). *)

module Table = Aptget_util.Table
module Pipeline = Aptget_core.Pipeline
module Machine = Aptget_machine.Machine
module Corun = Aptget_machine.Corun
module Drift = Aptget_adapt.Drift
module Profiler = Aptget_profile.Profiler
module Aptget_pass = Aptget_passes.Aptget_pass
module Workload = Aptget_workloads.Workload
module Randacc = Aptget_workloads.Randacc
module Btree = Aptget_workloads.Btree
module Thrash = Aptget_workloads.Thrash

type pair = {
  tenant : Workload.t;
  corunner : Workload.t;
  sweep : int list; (* forced distances; empty = skip the sweep table *)
}

(* The thrasher is sized per tenant so its block-dispatch count at
   least matches the tenant's: round-robin advances one block per
   stream per turn, so a co-runner that retires first would leave the
   tenant's tail uncontended. *)
let pairs lab =
  if Lab.quick lab then
    [
      {
        tenant =
          Randacc.workload
            ~params:
              { Randacc.table_words = 1 lsl 20; updates = 65_536; seed = 31 }
            ~name:"randAcc-ct" ();
        corunner =
          Thrash.workload
            ~params:{ Thrash.words = 1 lsl 19; passes = 4 }
            ~name:"thrash-ct" ();
        sweep = [ 1; 2; 4; 8; 16; 32 ];
      };
      {
        tenant =
          Btree.workload
            ~params:{ Btree.levels = 4; queries = 8_192; seed = 11 }
            ~name:"btree-ct" ();
        corunner =
          Thrash.workload
            ~params:{ Thrash.words = 1 lsl 19; passes = 8 }
            ~name:"thrash-ct" ();
        sweep = [];
      };
    ]
  else
    [
      {
        tenant =
          Randacc.workload
            ~params:
              { Randacc.table_words = 1 lsl 22; updates = 262_144; seed = 31 }
            ~name:"randAcc-ct" ();
        corunner =
          Thrash.workload
            ~params:{ Thrash.words = 1 lsl 19; passes = 8 }
            ~name:"thrash-ct" ();
        sweep = [ 1; 2; 4; 8; 16; 32; 64 ];
      };
      {
        tenant =
          Btree.workload
            ~params:{ Btree.levels = 4; queries = 32_768; seed = 11 }
            ~name:"btree-ct" ();
        corunner =
          Thrash.workload
            ~params:{ Thrash.words = 1 lsl 19; passes = 24 }
            ~name:"thrash-ct" ();
        sweep = [];
      };
    ]

let window_cycles lab = if Lab.quick lab then 250_000 else 1_000_000

(* Every arm of this experiment (solo included, so comparisons are
   fair) runs with a DRAM bandwidth bound: the default model's
   unlimited channel would let a prefetch stream and a thrasher fill
   concurrently for free, hiding exactly the queueing that makes a
   solo-tuned distance stale under co-running. *)
let config =
  let h = Machine.default_config.Machine.hierarchy in
  {
    Machine.default_config with
    Machine.hierarchy = { h with Aptget_cache.Hierarchy.dram_min_gap = 24 };
  }

let profile_options =
  { Profiler.default_options with Profiler.machine = config }

(* One co-run of a fresh tenant instance, [hints] injected (validated
   first, so a stale subset degrades exactly like the adaptive
   pipeline's rung), against a fresh co-runner. The measure stage
   verifies both streams: cache sharing must never change semantics. *)
let corun ?(policy = Corun.Round_robin) ?sampler ?window_cycles ?on_window
    ?hints (pair : pair) =
  let inject_valid hints (inst : Workload.instance) =
    let used, _dropped = Profiler.validate_hints inst.Workload.func hints in
    Pipeline.apply_hints ~hints:used inst
  in
  Pipeline.measure ~config
    ~executor:(Pipeline.Corun { corunner = pair.corunner; policy })
    ?sampler ?window_cycles ?on_window
    ?transform:(Option.map inject_valid hints)
    pair.tenant

let cycles (m : Pipeline.measurement) = m.Pipeline.outcome.Machine.cycles

let speedup ~base m =
  float_of_int (cycles base) /. float_of_int (cycles m)

type study = {
  st_name : string;
  st_solo_base : Pipeline.measurement;
  st_solo_tuned : Pipeline.measurement;
  st_corun_base : Pipeline.measurement;
  st_corun_stale : Pipeline.measurement;
  st_corun_final : Pipeline.measurement;
  st_action : string; (* "retuned" | "pinned" | "kept" *)
  st_verdict : Drift.verdict;
  st_eval : Drift.epoch_eval;
  st_retuned_distances : int list; (* distances of the re-fit hints *)
  st_solo_hints : Aptget_pass.hint list; (* the solo profile's hints *)
}

let study lab (pair : pair) =
  let name = pair.tenant.Workload.name in
  let wc = window_cycles lab in
  (* Solo arms. The solo hinted run collects counter windows: they are
     the drift detector's calibration epoch (the reference must
     describe the *hinted* program running alone). *)
  let solo_base, prof = Pipeline.profiled ~options:profile_options pair.tenant in
  let solo_base = Lab.check solo_base in
  let solo_windows = ref [] in
  let solo_tuned =
    Lab.check
      (Pipeline.measure ~config ~window_cycles:wc
         ~on_window:(fun w -> solo_windows := w :: !solo_windows)
         ~transform:(Pipeline.apply_hints ~hints:prof.Profiler.hints)
         pair.tenant)
        .Pipeline.tenant
  in
  (* Co-run baseline, with a sampler riding on the unhinted tenant:
     its LBR sees iteration times inflated by the shared DRAM queue,
     which is exactly the evidence the Eq. 1 re-fit needs. *)
  let sampler = Profiler.sampler profile_options in
  let base_run = corun ~sampler pair in
  let corun_base = Lab.check base_run.Pipeline.tenant in
  let refit = Pipeline.refit ~options:profile_options ~sampler base_run in
  (* Co-run with the stale solo hints, windows feeding the detector. *)
  let windows = ref [] in
  let corun_stale =
    Lab.check
      (corun ~window_cycles:wc
         ~on_window:(fun w -> windows := w :: !windows)
         ~hints:prof.Profiler.hints pair)
        .Pipeline.tenant
  in
  let corun_windows = List.rev !windows in
  (* Drift: epoch 1 (solo hinted) calibrates, epoch 2 (co-run) rules. *)
  let det =
    Drift.create
      {
        Drift.ref_mpki = Machine.mpki solo_tuned.Pipeline.outcome;
        ref_iter = None;
      }
  in
  Drift.begin_epoch det;
  List.iter (Drift.observe_window det) (List.rev !solo_windows);
  ignore (Drift.end_epoch det ());
  Drift.begin_epoch det;
  List.iter (Drift.observe_window det) corun_windows;
  let verdict, eval = Drift.end_epoch det () in
  (* Retune: re-fit hints, measured under the co-runner, admitted by a
     regression guard against the co-run baseline (floor as in
     Pipeline.default_floor). *)
  let retuned_hints =
    match refit with Some r -> r.Profiler.hints | None -> []
  in
  let corun_retuned =
    match retuned_hints with
    | [] -> None
    | hints ->
      Some
        (Lab.check (corun ~hints pair).Pipeline.tenant)
  in
  let floor = Pipeline.default_floor in
  let final, action =
    match corun_retuned with
    | Some m
      when speedup ~base:corun_base m >= floor
           && cycles m <= cycles corun_stale ->
      (m, "retuned")
    | _ ->
      if speedup ~base:corun_base corun_stale >= 1.0 then
        (corun_stale, "kept")
      else (corun_base, "pinned")
  in
  Lab.record lab ~workload:(name ^ "@solo") ~variant:"baseline" solo_base;
  Lab.record lab ~workload:(name ^ "@solo") ~variant:"aptget" solo_tuned;
  Lab.record lab ~workload:(name ^ "@corun") ~variant:"baseline" corun_base;
  Lab.record lab ~workload:(name ^ "@corun") ~variant:"aptget" corun_stale;
  Lab.record lab
    ~workload:(name ^ "@corun-online")
    ~variant:"baseline" corun_base;
  Lab.record lab ~workload:(name ^ "@corun-online") ~variant:"aptget" final;
  {
    st_name = name;
    st_solo_base = solo_base;
    st_solo_tuned = solo_tuned;
    st_corun_base = corun_base;
    st_corun_stale = corun_stale;
    st_corun_final = final;
    st_action = action;
    st_verdict = verdict;
    st_eval = eval;
    st_retuned_distances =
      List.map (fun h -> h.Aptget_pass.distance) retuned_hints;
    st_solo_hints = prof.Profiler.hints;
  }

let fmt_counters (m : Pipeline.measurement) =
  let c = m.Pipeline.outcome.Machine.counters in
  Printf.sprintf "late=%.2f early=%.2f"
    (Machine.late_prefetch_ratio c)
    (Machine.early_evict_ratio c)

let arms_table studies =
  let t =
    Table.create ~title:"Solo-tuned hints under a shared-LLC co-runner"
      ~header:[ "tenant"; "arm"; "cycles"; "speedup"; "prefetch timing" ]
  in
  List.iter
    (fun s ->
      let row arm m ~base =
        Table.add_row t
          [
            s.st_name;
            arm;
            string_of_int (cycles m);
            Table.fmt_speedup (speedup ~base m);
            fmt_counters m;
          ]
      in
      row "solo baseline" s.st_solo_base ~base:s.st_solo_base;
      row "solo APT-GET" s.st_solo_tuned ~base:s.st_solo_base;
      row "co-run baseline" s.st_corun_base ~base:s.st_corun_base;
      row "co-run stale hints" s.st_corun_stale ~base:s.st_corun_base;
      row
        (Printf.sprintf "co-run online (%s)" s.st_action)
        s.st_corun_final ~base:s.st_corun_base)
    studies;
  t

let drift_table studies =
  let t =
    Table.create ~title:"Drift verdicts and recovery (co-run epoch)"
      ~header:
        [
          "tenant"; "windows"; "drifted"; "score"; "cause"; "verdict";
          "action"; "stale loss"; "retuned distances";
        ]
  in
  List.iter
    (fun s ->
      (* Headline criterion: how much of the solo speedup survives the
         co-runner when the hints are not retuned. *)
      let solo_sp = speedup ~base:s.st_solo_base s.st_solo_tuned in
      let stale_sp = speedup ~base:s.st_corun_base s.st_corun_stale in
      let loss = 1.0 -. (stale_sp /. solo_sp) in
      Table.add_row t
        [
          s.st_name;
          string_of_int s.st_eval.Drift.ev_windows;
          string_of_int s.st_eval.Drift.ev_drifted;
          Printf.sprintf "%.4f" s.st_eval.Drift.ev_score;
          s.st_eval.Drift.ev_cause;
          Drift.verdict_to_string s.st_verdict;
          s.st_action;
          Printf.sprintf "%.1f%%" (100.0 *. loss);
          (match s.st_retuned_distances with
          | [] -> "-"
          | ds -> String.concat "," (List.map string_of_int ds));
        ])
    studies;
  t

(* Forced-distance sweep, solo vs co-run: the co-run optimum sits at a
   longer distance than the solo one because the shared DRAM channel
   stretches the memory component of Eq. 1. *)
let sweep_table ((pair : pair), (s : study)) =
  match pair.sweep with
  | [] -> None
  | distances ->
    let name = pair.tenant.Workload.name in
    let solo_base = s.st_solo_base in
    let corun_base = s.st_corun_base in
    let t =
      Table.create
        ~title:
          (Printf.sprintf "%s: forced distance, solo vs co-run" name)
        ~header:
          [ "distance"; "solo cycles"; "solo speedup"; "co-run cycles";
            "co-run speedup" ]
    in
    List.iter
      (fun d ->
        let hints = Pipeline.force_distance d s.st_solo_hints in
        let solo =
          Lab.check (Pipeline.with_hints ~config ~hints pair.tenant)
        in
        let co = Lab.check (corun ~hints pair).Pipeline.tenant in
        Table.add_row t
          [
            string_of_int d;
            string_of_int (cycles solo);
            Table.fmt_speedup (speedup ~base:solo_base solo);
            string_of_int (cycles co);
            Table.fmt_speedup (speedup ~base:corun_base co);
          ])
      distances;
    Some t

(* Scheduler-policy comparison on one pair: the cycle-ratio policy
   shifts dispatch turns between the streams, which moves each
   stream's own cycle count because the shared LLC/DRAM interleaving
   changes with it. *)
let policy_table (pair : pair) =
  let run policy =
    let r = corun ~policy pair in
    ( (Lab.check r.Pipeline.tenant).Pipeline.outcome,
      (Option.get r.Pipeline.corunner).Pipeline.outcome )
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Scheduler policies: %s vs %s"
           pair.tenant.Workload.name pair.corunner.Workload.name)
      ~header:[ "policy"; "tenant cycles"; "co-runner cycles" ]
  in
  List.iter
    (fun policy ->
      let tenant_o, corunner_o = run policy in
      Table.add_row t
        [
          Corun.policy_to_string policy;
          string_of_int tenant_o.Machine.cycles;
          string_of_int corunner_o.Machine.cycles;
        ])
    [
      Corun.Round_robin;
      Corun.Cycle_ratio [ 1; 1 ];
      Corun.Cycle_ratio [ 4; 1 ];
    ];
  t

let all lab =
  let ps = pairs lab in
  let studies = List.map (study lab) ps in
  let sweeps = List.filter_map sweep_table (List.combine ps studies) in
  let policies = match ps with [] -> [] | p :: _ -> [ policy_table p ] in
  (arms_table studies :: drift_table studies :: sweeps) @ policies
