(* Integration: the full APT-GET pipeline end to end, plus the
   experiment lab. These use reduced workload sizes but exercise the
   same code paths as the paper's headline results. *)

module Machine = Aptget_machine.Machine
module Pipeline = Aptget_core.Pipeline
module Config = Aptget_core.Config
module Workload = Aptget_workloads.Workload
module Micro = Aptget_workloads.Micro
module Suite = Aptget_workloads.Suite
module Hashjoin = Aptget_workloads.Hashjoin
module Profiler = Aptget_profile.Profiler
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject
module Lab = Aptget_experiments.Lab
module Registry = Aptget_experiments.Registry
module Table = Aptget_util.Table

let micro_w ?(inner = 256) () =
  Micro.workload
    ~params:
      { Micro.default_params with Micro.total = 32_768; table_words = 1 lsl 20; inner }
    ~name:"micro-test" ()

let test_baseline_measurement () =
  let m = Pipeline.baseline (micro_w ()) in
  Alcotest.(check bool) "verified" true (m.Pipeline.verified = Ok ());
  Alcotest.(check bool) "no injections" true (m.Pipeline.injected = []);
  Alcotest.(check bool) "ran" true (m.Pipeline.outcome.Machine.cycles > 0)

let test_aptget_speeds_up_micro () =
  let w = micro_w () in
  let base, prof = Pipeline.profiled w in
  let base = Pipeline.verified_exn base in
  let apt =
    Pipeline.verified_exn (Pipeline.with_hints ~hints:prof.Profiler.hints w)
  in
  Alcotest.(check bool) "hints produced" true (prof.Profiler.hints <> []);
  let s = Pipeline.speedup ~baseline:base apt in
  Alcotest.(check bool) (Printf.sprintf "speedup > 1.5 (got %.2f)" s) true (s > 1.5)

let test_aptget_beats_or_matches_naive_distance () =
  let w = micro_w () in
  let base, prof = Pipeline.profiled w in
  let base = Pipeline.verified_exn base in
  let apt = Pipeline.with_hints ~hints:prof.Profiler.hints w in
  let d1 = Pipeline.verified_exn (Pipeline.aj ~distance:1 w) in
  Alcotest.(check bool) "timely beats distance-1" true
    (Pipeline.speedup ~baseline:base apt
    > Pipeline.speedup ~baseline:base d1)

let test_low_trip_count_needs_outer () =
  let w = micro_w ~inner:4 () in
  let base, prof = Pipeline.profiled w in
  let base = Pipeline.verified_exn base in
  let inner =
    Pipeline.verified_exn
      (Pipeline.with_hints ~hints:(Pipeline.force_site Inject.Inner prof.Profiler.hints) w)
  in
  let outer =
    Pipeline.verified_exn
      (Pipeline.with_hints ~hints:(Pipeline.force_site Inject.Outer prof.Profiler.hints) w)
  in
  let s_inner = Pipeline.speedup ~baseline:base inner in
  let s_outer = Pipeline.speedup ~baseline:base outer in
  Alcotest.(check bool)
    (Printf.sprintf "outer (%0.2f) > inner (%0.2f) at trip count 4" s_outer s_inner)
    true (s_outer > s_inner)

let test_force_distance () =
  let hints =
    [ { Aptget_pass.load_pc = 1; distance = 9; site = Inject.Inner; sweep = 1 } ]
  in
  match Pipeline.force_distance 3 hints with
  | [ h ] -> Alcotest.(check int) "forced" 3 h.Aptget_pass.distance
  | _ -> Alcotest.fail "unexpected"

let test_force_site_resets_sweep () =
  let hints =
    [ { Aptget_pass.load_pc = 1; distance = 9; site = Inject.Outer; sweep = 7 } ]
  in
  match Pipeline.force_site Inject.Inner hints with
  | [ h ] ->
    Alcotest.(check bool) "inner" true (h.Aptget_pass.site = Inject.Inner);
    Alcotest.(check int) "sweep reset" 1 h.Aptget_pass.sweep
  | _ -> Alcotest.fail "unexpected"

let test_train_test_hints_transfer () =
  (* Hints profiled on one input instance apply to another of the same
     app: the IR layout (and thus the PCs) is structural. *)
  let small seed =
    Hashjoin.workload
      ~params:
        {
          Hashjoin.hj2_params with
          Hashjoin.n_build = 8192;
          n_probe = 4096;
          n_buckets = 1 lsl 12;
          seed;
        }
      ~name:(Printf.sprintf "hj2-seed%d" seed)
      ()
  in
  let train = small 1 and test = small 99 in
  let prof = Pipeline.profile train in
  let base = Pipeline.verified_exn (Pipeline.baseline test) in
  let m = Pipeline.verified_exn (Pipeline.with_hints ~hints:prof.Profiler.hints test) in
  Alcotest.(check bool) "injected on the test input" true (m.Pipeline.injected <> []);
  Alcotest.(check bool) "no regression" true
    (Pipeline.speedup ~baseline:base m > 0.9)

let test_verified_exn_raises () =
  let m =
    {
      Pipeline.workload = "w";
      outcome =
        {
          Machine.cycles = 1;
          instructions = 1;
          dyn_loads = 0;
          dyn_prefetches = 0;
          ret = None;
          counters =
            Aptget_cache.Hierarchy.counters
              (Aptget_cache.Hierarchy.create Aptget_cache.Hierarchy.default_config);
        };
      verified = Error "boom";
      injected = [];
      skipped = [];
      wall_seconds = 0.;
    }
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pipeline.verified_exn m);
       false
     with Failure _ -> true)

(* ---------------- the profiling run is the baseline ---------------- *)

module Faults = Aptget_pmu.Faults
module Trace = Aptget_obs.Trace

(* Sampling never perturbs the simulation: the profiling run's outcome
   is the unmodified kernel's, counters included, so it can stand in
   for the baseline. Fault injection corrupts only what the sampler
   records, and a denser LBR period only records more. *)
let test_profiling_run_is_baseline () =
  let graph_w =
    Suite.bfs ~name:"bfs-test"
      ~graph:(fun () ->
        Aptget_graph.Datasets.synthetic ~nodes:4_000 ~degree:8 ())
      ~input:"4K-d8"
  in
  let denser =
    {
      Profiler.default_options with
      Profiler.lbr_period = Profiler.default_options.Profiler.lbr_period / 4;
    }
  in
  List.iter
    (fun (w : Workload.t) ->
      let base = Pipeline.baseline w in
      List.iter
        (fun (label, options) ->
          let m, _ = Pipeline.profiled ~options w in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: same outcome" w.Workload.name label)
            true
            (m.Pipeline.outcome = base.Pipeline.outcome);
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: verified" w.Workload.name label)
            true
            (m.Pipeline.verified = Ok ()))
        [
          ("no faults", Profiler.default_options);
          ( "default faults",
            { Profiler.default_options with Profiler.faults = Faults.default_faulty }
          );
          ("4x denser LBR", denser);
        ])
    [ micro_w (); graph_w ]

let simulation_spans () =
  List.length
    (List.filter
       (fun (s : Trace.span) ->
         s.Trace.name = "stage.measure" || s.Trace.name = "stage.profile")
       (Trace.spans ()))

let with_trace f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

(* The lab asks for a workload's baseline after its profile: the
   profiling run answers both, so the unhinted kernel runs once. *)
let test_lab_baseline_is_profiling_run () =
  with_trace @@ fun () ->
  let lab = Lab.create ~quick:true () in
  let w = micro_w () in
  ignore (Lab.aptget lab w);
  Alcotest.(check int) "profiling run and hinted run" 2 (simulation_spans ());
  let base = Lab.baseline lab w in
  Alcotest.(check int) "the baseline simulates nothing more" 2
    (simulation_spans ());
  Alcotest.(check bool) "the profiling run's outcome" true
    (base.Pipeline.outcome = (Pipeline.baseline w).Pipeline.outcome)

(* The lab keys a run by what runs. A static distance equal to the
   solved one is the APT-GET run, and the baseline after the profile is
   the profiling run: each costs one simulation. Distances 16 and 32
   inject programs with one structural fingerprint (it hashes opcodes,
   not operands) but are two runs. *)
let test_lab_keys_by_content () =
  with_trace @@ fun () ->
  let lab = Lab.create ~quick:true () in
  let w = micro_w () in
  let prof = Lab.profiled lab w in
  let solved =
    match
      List.sort_uniq compare
        (List.map (fun (h : Aptget_pass.hint) -> h.Aptget_pass.distance)
           prof.Profiler.hints)
    with
    | [ d ] -> d
    | _ -> Alcotest.fail "expected one solved distance"
  in
  Alcotest.(check int) "the profiling run" 1 (simulation_spans ());
  let apt = Lab.aptget lab w in
  let static = Lab.static_distance lab ~distance:solved w in
  Alcotest.(check int) "the solved static distance is the APT-GET run" 2
    (simulation_spans ());
  Alcotest.(check bool) "the same record" true (apt == static);
  ignore (Lab.baseline lab w);
  Alcotest.(check int) "the baseline is the profiling run" 2
    (simulation_spans ());
  let fingerprint d =
    let r =
      Pipeline.measure
        ~transform:
          (Pipeline.apply_hints
             ~hints:(Pipeline.force_distance d prof.Profiler.hints))
        w
    in
    (Aptget_ir.Fingerprint.fingerprint r.Pipeline.instance.Workload.func)
      .Aptget_ir.Fingerprint.program
  in
  Alcotest.(check int) "16 and 32 share a structural fingerprint"
    (fingerprint 16) (fingerprint 32);
  let cycles d =
    (Lab.static_distance lab ~distance:d w).Pipeline.outcome.Machine.cycles
  in
  let fresh d =
    (Pipeline.with_hints ~hints:(Pipeline.force_distance d prof.Profiler.hints)
       w)
      .Pipeline.outcome.Machine.cycles
  in
  Alcotest.(check bool) "16 and 32 are two runs" true (cycles 16 <> cycles 32);
  Alcotest.(check int) "16 as run fresh" (fresh 16) (cycles 16);
  Alcotest.(check int) "32 as run fresh" (fresh 32) (cycles 32)

(* Jobs that solve to one run are one simulation at any --jobs: the
   profiling run, the APT-GET run (the static job at the solved
   distance is the same key) and one A&J run. *)
let test_run_batch_dedupes_by_key () =
  let solved =
    match (Lab.profiled (Lab.create ~quick:true ()) (micro_w ())).Profiler.hints with
    | h :: _ -> h.Aptget_pass.distance
    | [] -> Alcotest.fail "expected hints"
  in
  List.iter
    (fun jobs ->
      with_trace @@ fun () ->
      let lab = Lab.create ~quick:true () in
      let w = micro_w () in
      Lab.run_batch ~jobs lab
        [
          Lab.Static { distance = solved; w };
          Lab.Aptget w;
          Lab.Baseline w;
          Lab.Aj { distance = None; w };
          Lab.Aj { distance = Some Aptget_passes.Aj.default_distance; w };
        ];
      Alcotest.(check int)
        (Printf.sprintf "three simulations at --jobs %d" jobs)
        3 (simulation_spans ());
      Alcotest.(check (list string))
        "the batch's baseline and APT-GET jobs are reported" [ "micro-test" ]
        (List.map (fun (name, _, _) -> name) (Lab.summary lab));
      Alcotest.(check int) "the getters simulate nothing more"
        3
        (ignore (Lab.aptget lab w);
         ignore (Lab.static_distance lab ~distance:solved w);
         simulation_spans ()))
    [ 1; 2 ]

(* An analysis-only option sweep refits one sampled run: each value's
   profile equals a fresh profiling run under that value, and the
   overhead filter applied to the unfiltered profile equals a filtered
   refit. *)
let test_sampled_run_refits () =
  let w = micro_w ~inner:4 () in
  let r, sampler, _ = Pipeline.profiled_run w in
  let f = r.Pipeline.instance.Workload.func in
  let default = Option.get (Pipeline.refit ~sampler r) in
  let same what (a : Profiler.t) (b : Profiler.t) =
    Alcotest.(check bool) (what ^ ": same profile") true (a = b)
  in
  let base, prof = Pipeline.profiled w in
  Alcotest.(check bool) "the run is the profiling run" true
    (base.Pipeline.outcome = r.Pipeline.tenant.Pipeline.outcome);
  same "default" prof default;
  Alcotest.(check bool) "hints to sweep" true (default.Profiler.hints <> []);
  List.iter
    (fun (what, options) ->
      same what (snd (Pipeline.profiled ~options w))
        (Option.get (Pipeline.refit ~options ~sampler r)))
    [
      ("k 1", { Profiler.default_options with Profiler.k = 1 });
      ("naive finder", { Profiler.default_options with Profiler.finder = Aptget_profile.Model.Naive });
    ];
  List.iter
    (fun frac ->
      let options = { Profiler.default_options with Profiler.max_overhead_frac = frac } in
      let refit = Option.get (Pipeline.refit ~options ~sampler r) in
      same (Printf.sprintf "filter %g" frac) refit
        (Profiler.filter_overhead options f default))
    [ 0.01; 1.0; infinity ];
  Alcotest.(check bool) "a filter that drops hints" true
    (List.length
       (Profiler.filter_overhead
          { Profiler.default_options with Profiler.max_overhead_frac = 0.01 }
          f default)
         .Profiler.hints
    < List.length default.Profiler.hints)

(* ---------------- run_robust ---------------- *)

let test_robust_no_faults_bit_identical () =
  (* With the fault model disabled, run_robust measures the same
     machine outcome as the plain pipeline: same cycles, same
     instruction count, same injections. *)
  let w = micro_w () in
  let plain =
    Pipeline.with_hints ~hints:(Pipeline.profile w).Profiler.hints w
  in
  let r = Pipeline.run_robust w in
  match r.Pipeline.r_measurement with
  | Some m ->
    Alcotest.(check int) "same cycles" plain.Pipeline.outcome.Machine.cycles
      m.Pipeline.outcome.Machine.cycles;
    Alcotest.(check int) "same instructions"
      plain.Pipeline.outcome.Machine.instructions
      m.Pipeline.outcome.Machine.instructions;
    Alcotest.(check bool) "verified" true (m.Pipeline.verified = Ok ());
    Alcotest.(check bool) "injected" true (m.Pipeline.injected <> [])
  | None -> Alcotest.fail "expected a measurement"

let test_robust_default_faults_complete () =
  (* Under the default fault mix the pipeline must complete without
     raising and produce a verified measurement; whatever was skipped
     or degraded carries a recorded cause. *)
  let w = micro_w () in
  let r = Pipeline.run_robust ~faults:Faults.default_faulty w in
  (match r.Pipeline.r_measurement with
  | Some m ->
    Alcotest.(check bool) "verified" true (m.Pipeline.verified = Ok ());
    Alcotest.(check bool) "ran" true (m.Pipeline.outcome.Machine.cycles > 0)
  | None -> Alcotest.fail "expected a measurement even under faults");
  List.iter
    (fun (d : Pipeline.degradation) ->
      Alcotest.(check bool) "cause recorded" true (String.length d.Pipeline.cause > 0);
      Alcotest.(check bool) "fallback recorded" true
        (String.length d.Pipeline.fallback > 0))
    r.Pipeline.r_degradations;
  List.iter
    (fun (_, reason) ->
      Alcotest.(check bool) "drop reason recorded" true (String.length reason > 0))
    r.Pipeline.r_hints_dropped

let test_robust_extreme_faults_fall_back () =
  (* Drop every LBR snapshot: no iteration times survive, so the
     profile degenerates — run_robust must still produce a verified run
     (static fallback or baseline) and say why. *)
  let w = micro_w () in
  let faults = { Faults.none with Faults.lbr_drop_rate = 1.0 } in
  let r = Pipeline.run_robust ~faults w in
  Alcotest.(check bool) "degradations recorded" true
    (r.Pipeline.r_degradations <> []);
  match r.Pipeline.r_measurement with
  | Some m -> Alcotest.(check bool) "verified" true (m.Pipeline.verified = Ok ())
  | None -> Alcotest.fail "expected a fallback measurement"

(* run_robust's profiling run is the baseline of record: PMU faults
   change only what the sampler keeps, and a thin-profile retry runs
   the same unmodified kernel again. *)
let test_robust_baseline_is_profiling_run () =
  let w = micro_w () in
  let base = Pipeline.baseline w in
  List.iter
    (fun (tag, faults, retried) ->
      let r = Pipeline.run_robust ~faults w in
      if retried then
        Alcotest.(check bool) (tag ^ ": profile retried") true
          r.Pipeline.r_profile_retried;
      match r.Pipeline.r_baseline with
      | Some b ->
        Alcotest.(check bool) (tag ^ ": baseline outcome") true
          (b.Pipeline.outcome = base.Pipeline.outcome);
        Alcotest.(check bool) (tag ^ ": verified") true
          (b.Pipeline.verified = base.Pipeline.verified)
      | None -> Alcotest.fail (tag ^ ": expected the profiling run"))
    [
      ("default faults", Faults.default_faulty, false);
      ("thin profile", { Faults.none with Faults.lbr_drop_rate = 1.0 }, true);
    ];
  Alcotest.(check bool) "no profiling run with supplied hints" true
    ((Pipeline.run_robust ~hints:[] w).Pipeline.r_baseline = None)

let test_robust_stale_hints_dropped () =
  (* A hint whose PC does not name a load in the program (a stale
     checked-in hints file) is rejected with a reason; good hints are
     still used. *)
  let w = micro_w () in
  let prof = Pipeline.profile w in
  let good = List.hd prof.Profiler.hints in
  let stale =
    { Aptget_pass.load_pc = 999_983; distance = 8; site = Inject.Inner; sweep = 1 }
  in
  let r = Pipeline.run_robust ~hints:[ good; stale ] w in
  Alcotest.(check bool) "good hint used" true
    (List.exists
       (fun (h : Aptget_pass.hint) -> h.Aptget_pass.load_pc = good.Aptget_pass.load_pc)
       r.Pipeline.r_hints_used);
  (match r.Pipeline.r_hints_dropped with
  | [ (h, reason) ] ->
    Alcotest.(check int) "the stale one" stale.Aptget_pass.load_pc
      h.Aptget_pass.load_pc;
    Alcotest.(check bool) "with a reason" true (String.length reason > 0)
  | l -> Alcotest.fail (Printf.sprintf "expected one dropped hint, got %d" (List.length l)));
  Alcotest.(check bool) "validation surfaced as a degradation" true
    (List.exists
       (fun (d : Pipeline.degradation) -> d.Pipeline.stage = "hints")
       r.Pipeline.r_degradations);
  match r.Pipeline.r_measurement with
  | Some m -> Alcotest.(check bool) "verified" true (m.Pipeline.verified = Ok ())
  | None -> Alcotest.fail "expected a measurement"

let test_config_rows () =
  let rows = Config.rows () in
  Alcotest.(check bool) "has LLC row" true
    (List.exists (fun (c, _) -> c = "LLC") rows);
  Alcotest.(check bool) "has LBR row" true
    (List.exists (fun (c, _) -> c = "LBR") rows)

(* ---------------- Lab + experiments ---------------- *)

let test_lab_memoizes () =
  let lab = Lab.create ~quick:true () in
  let w = List.hd (Lab.suite lab) in
  let m1 = Lab.baseline lab w in
  let m2 = Lab.baseline lab w in
  Alcotest.(check bool) "same measurement object" true (m1 == m2)

let test_lab_quick_suite () =
  let lab = Lab.create ~quick:true () in
  Alcotest.(check bool) "reduced suite" true
    (List.length (Lab.suite lab) < List.length Suite.default);
  Alcotest.(check bool) "quick flag" true (Lab.quick lab)

let test_registry_complete () =
  let ids =
    [ "table1"; "fig1"; "fig2"; "fig3"; "fig4"; "table2"; "table3"; "table4";
      "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12";
      "datasets"; "ablations"; "robustness"; "staleness"; "extensions";
      "campaign"; "adaptive"; "contention" ]
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (Registry.find id <> None))
    ids;
  Alcotest.(check int) "exactly the paper's artefacts" (List.length ids)
    (List.length Registry.all);
  Alcotest.(check bool) "unknown rejected" true (Registry.find "fig99" = None)

let test_static_tables_render () =
  let lab = Lab.create ~quick:true () in
  List.iter
    (fun id ->
      let e = Option.get (Registry.find id) in
      let tables = e.Registry.run lab in
      Alcotest.(check bool) (id ^ " produces tables") true (tables <> []);
      List.iter
        (fun t ->
          Alcotest.(check bool) (id ^ " renders") true
            (String.length (Table.render t) > 0))
        tables)
    [ "table2"; "table3"; "table4" ]

(* ---------------- persistent measurement cache ---------------- *)

module Meas_cache = Aptget_core.Meas_cache

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let meas_equal (a : Pipeline.measurement) (b : Pipeline.measurement) =
  a.Pipeline.workload = b.Pipeline.workload
  && a.Pipeline.outcome = b.Pipeline.outcome
  && a.Pipeline.verified = b.Pipeline.verified
  && a.Pipeline.injected = b.Pipeline.injected
  && a.Pipeline.skipped = b.Pipeline.skipped
  && a.Pipeline.wall_seconds = b.Pipeline.wall_seconds

(* What a fresh memo over [dir] finds under [key]: the record on disk. *)
let load ~dir key =
  match
    Meas_cache.memoize (Meas_cache.create ~dir ()) key
      ~caps:Machine.default_config (fun () -> raise Exit)
  with
  | m -> Some m
  | exception Exit -> None

let key_of w transform =
  Meas_cache.key ~workload:w.Workload.name ~program:(Meas_cache.program w)
    ~config:Machine.default_config transform

let test_meas_cache_roundtrip () =
  let w = micro_w () in
  let m = Pipeline.aj ~distance:8 w in
  Alcotest.(check bool) "has injections" true (m.Pipeline.injected <> []);
  let key = key_of w (Meas_cache.Aj 8) in
  let dir = tmpdir "aptget-meas" in
  Alcotest.(check bool) "cold miss" true (load ~dir key = None);
  Meas_cache.add (Meas_cache.create ~dir ()) key m;
  (match load ~dir key with
  | None -> Alcotest.fail "expected a hit after store"
  | Some m' -> Alcotest.(check bool) "roundtrips exactly" true (meas_equal m m'));
  (* A different key must not alias onto the stored record. *)
  let other = key_of w Meas_cache.Unmodified in
  Alcotest.(check bool) "other variant misses" true (load ~dir other = None)

let test_meas_cache_rejects_corruption () =
  let w = micro_w () in
  let m = Pipeline.baseline w in
  let key = key_of w Meas_cache.Unmodified in
  let dir = tmpdir "aptget-meas" in
  Meas_cache.add (Meas_cache.create ~dir ()) key m;
  let file =
    match Sys.readdir dir with
    | [| f |] -> Filename.concat dir f
    | _ -> Alcotest.fail "expected exactly one cache file"
  in
  let text = In_channel.with_open_bin file In_channel.input_all in
  (* Flip one digit inside the outcome line: the CRC must catch it. *)
  let corrupted =
    String.map (fun c -> if c = '1' then '2' else c) text
  in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc corrupted);
  Alcotest.(check bool) "corrupt record is a miss" true (load ~dir key = None);
  (* Truncation likewise. *)
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (String.sub text 0 (String.length text / 2)));
  Alcotest.(check bool) "truncated record is a miss" true (load ~dir key = None)

(* The lab with a cache dir must produce the same measurements on a
   cold run (simulate + store) and a warm run (load), including through
   run_batch at several parallelism levels. *)
let test_lab_cache_hit_identical () =
  let dir = tmpdir "aptget-lab-cache" in
  let run jobs =
    let lab = Lab.create ~quick:true ~cache_dir:dir () in
    let w = micro_w () in
    Lab.run_batch ~jobs lab
      [ Lab.Baseline w; Lab.Aj { distance = None; w }; Lab.Aptget w ];
    let base = Lab.baseline lab w in
    let aj = Lab.aj lab w in
    let apt = Lab.aptget lab w in
    (base, aj, apt)
  in
  let b1, a1, p1 = run 1 in
  let b2, a2, p2 = run 2 in
  let b3, a3, p3 = run 1 in
  List.iter
    (fun (label, x, y) ->
      Alcotest.(check bool) (label ^ " outcome identical") true
        (x.Pipeline.outcome = y.Pipeline.outcome
        && x.Pipeline.injected = y.Pipeline.injected))
    [
      ("warm2 baseline", b1, b2); ("warm2 aj", a1, a2); ("warm2 aptget", p1, p2);
      ("warm3 baseline", b1, b3); ("warm3 aj", a1, a3); ("warm3 aptget", p1, p3);
    ]

let test_micro_experiments_run () =
  let lab = Lab.create ~quick:true () in
  List.iter
    (fun id ->
      let e = Option.get (Registry.find id) in
      Alcotest.(check bool) (id ^ " runs") true (e.Registry.run lab <> []))
    [ "table1"; "fig3"; "fig4" ]

let () =
  Alcotest.run "pipeline"
    [
      ( "pipeline",
        [
          Alcotest.test_case "baseline" `Quick test_baseline_measurement;
          Alcotest.test_case "micro speedup" `Quick test_aptget_speeds_up_micro;
          Alcotest.test_case "beats distance-1" `Quick
            test_aptget_beats_or_matches_naive_distance;
          Alcotest.test_case "outer at low trip" `Quick test_low_trip_count_needs_outer;
          Alcotest.test_case "force distance" `Quick test_force_distance;
          Alcotest.test_case "force site" `Quick test_force_site_resets_sweep;
          Alcotest.test_case "train/test transfer" `Quick test_train_test_hints_transfer;
          Alcotest.test_case "verified_exn" `Quick test_verified_exn_raises;
          Alcotest.test_case "config rows" `Quick test_config_rows;
          Alcotest.test_case "profiling run is the baseline" `Quick
            test_profiling_run_is_baseline;
        ] );
      ( "robust",
        [
          Alcotest.test_case "no faults bit-identical" `Quick
            test_robust_no_faults_bit_identical;
          Alcotest.test_case "default faults complete" `Quick
            test_robust_default_faults_complete;
          Alcotest.test_case "extreme faults fall back" `Quick
            test_robust_extreme_faults_fall_back;
          Alcotest.test_case "baseline is the profiling run" `Quick
            test_robust_baseline_is_profiling_run;
          Alcotest.test_case "stale hints dropped" `Quick
            test_robust_stale_hints_dropped;
        ] );
      ( "lab",
        [
          Alcotest.test_case "memoizes" `Quick test_lab_memoizes;
          Alcotest.test_case "sampled run refits" `Quick test_sampled_run_refits;
          Alcotest.test_case "baseline is the profiling run" `Quick
            test_lab_baseline_is_profiling_run;
          Alcotest.test_case "keys by content" `Quick test_lab_keys_by_content;
          Alcotest.test_case "run_batch dedupes by key" `Quick
            test_run_batch_dedupes_by_key;
          Alcotest.test_case "quick suite" `Quick test_lab_quick_suite;
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "static tables" `Quick test_static_tables_render;
          Alcotest.test_case "micro experiments" `Quick test_micro_experiments_run;
        ] );
      ( "meas-cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_meas_cache_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick
            test_meas_cache_rejects_corruption;
          Alcotest.test_case "lab cache hit identical" `Quick
            test_lab_cache_hit_identical;
        ] );
    ]
