(* Stale-profile resilience: structural fingerprints, semantics-
   preserving IR mutations, hint remapping, the regression guard and
   the quarantine store. *)

module Machine = Aptget_machine.Machine
module Pipeline = Aptget_core.Pipeline
module Quarantine = Aptget_core.Quarantine
module Meas_cache = Aptget_core.Meas_cache
module Watchdog = Aptget_core.Watchdog
module Trace = Aptget_obs.Trace
module Workload = Aptget_workloads.Workload
module Micro = Aptget_workloads.Micro
module Profiler = Aptget_profile.Profiler
module Remap = Aptget_profile.Remap
module Hints_file = Aptget_profile.Hints_file
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject

let micro_params =
  {
    Micro.default_params with
    Micro.total = 16_384;
    table_words = 1 lsl 19;
  }

let micro_w () = Micro.workload ~params:micro_params ~name:"micro-res" ()

let profile_doc w =
  let prof = Pipeline.profile w in
  (Profiler.to_doc prof, prof)

let mutated (w : Workload.t) ~tag mutate =
  {
    w with
    Workload.name = w.Workload.name ^ "~" ^ tag;
    build =
      (fun () ->
        let inst = w.Workload.build () in
        { inst with Workload.func = mutate inst.Workload.func });
  }

let delinquent_pc () =
  Micro.delinquent_load_pc (Micro.build micro_params)

let collide f =
  match Mutate.collide_load f ~pc:(delinquent_pc ()) with
  | Some f -> f
  | None -> Alcotest.fail "collide_load did not apply to the micro kernel"

(* ---------------- Fingerprint ---------------- *)

let micro_func () = (Micro.build micro_params).Workload.func

let forget_pc (l : Fingerprint.load_fp) = { l with Fingerprint.lf_pc = 0 }

let test_fingerprint_deterministic () =
  let a = Fingerprint.fingerprint (micro_func ()) in
  let b = Fingerprint.fingerprint (micro_func ()) in
  Alcotest.(check bool) "equal across builds" true (a = b)

let test_fingerprint_position_invariant () =
  (* Layout mutations move every PC but change no load's structure. *)
  let f = micro_func () in
  let base =
    List.map forget_pc (Fingerprint.fingerprint f).Fingerprint.loads
  in
  List.iter
    (fun (tag, mutate) ->
      let fps =
        List.map forget_pc
          (Fingerprint.fingerprint (mutate (micro_func ()))).Fingerprint.loads
      in
      Alcotest.(check bool)
        (tag ^ ": load fingerprints unchanged modulo pc")
        true (fps = base))
    [
      ("pad-entry", Mutate.pad_entry);
      ("split-all", fun f -> Mutate.split_all f);
    ]

let test_fingerprint_distinguishes_loads () =
  (* The micro kernel has a direct B[idx] load and an indirect T[...]
     load; their slices must differ, and the indirect one must record
     an intermediate load. *)
  let fp = Fingerprint.fingerprint (micro_func ()) in
  let del = delinquent_pc () in
  let indirect =
    List.find
      (fun (l : Fingerprint.load_fp) -> l.Fingerprint.lf_pc = del)
      fp.Fingerprint.loads
  in
  Alcotest.(check bool) "indirection counted" true
    (indirect.Fingerprint.lf_loads >= 1);
  List.iter
    (fun (l : Fingerprint.load_fp) ->
      if l.Fingerprint.lf_pc <> del then
        Alcotest.(check bool) "direct load has a different slice" true
          (l.Fingerprint.lf_slice <> indirect.Fingerprint.lf_slice))
    fp.Fingerprint.loads

let test_similarity_and_best_match () =
  let fp = Fingerprint.fingerprint (micro_func ()) in
  List.iter
    (fun (l : Fingerprint.load_fp) ->
      Alcotest.(check (float 1e-9)) "self similarity" 1.0
        (Fingerprint.similarity l l);
      match Fingerprint.best_match fp l with
      | Some (m, score) ->
        Alcotest.(check int) "best match is itself" l.Fingerprint.lf_pc
          m.Fingerprint.lf_pc;
        Alcotest.(check (float 1e-9)) "with full confidence" 1.0 score
      | None -> Alcotest.fail "no match in own program")
    fp.Fingerprint.loads

(* ---------------- Mutate: semantics preserved ---------------- *)

let run_mutated mutate =
  let inst = Micro.build micro_params in
  let f = mutate inst.Workload.func in
  Verify.check_exn f;
  let outcome = Machine.execute ~args:inst.Workload.args ~mem:inst.Workload.mem f in
  (inst, outcome)

let test_mutations_preserve_semantics () =
  let expected = Micro.accumulate_expected micro_params in
  List.iter
    (fun (tag, mutate) ->
      let inst, outcome = run_mutated mutate in
      (match inst.Workload.verify inst.Workload.mem outcome.Machine.ret with
      | Ok () -> ()
      | Error e -> Alcotest.fail (tag ^ ": " ^ e));
      Alcotest.(check (option int)) (tag ^ ": checksum") (Some expected)
        outcome.Machine.ret)
    [
      ("identity", fun f -> f);
      ("pad-entry", Mutate.pad_entry);
      ( "nop-slide",
        fun f ->
          Mutate.insert_dead f
            ~block:(Layout.block_of_pc (delinquent_pc ()))
            ~index:0 ~count:3 );
      ("split-all", fun f -> Mutate.split_all f);
      ("collide", collide);
    ]

let test_collide_moves_a_load_onto_the_pc () =
  let pc = delinquent_pc () in
  let f = collide (micro_func ()) in
  (match Layout.instr_at f pc with
  | Some { Ir.kind = Ir.Load _; _ } -> ()
  | _ -> Alcotest.fail "expected a load at the profiled pc");
  (* ... but not the load that was profiled: its slice changed. *)
  let fp = Fingerprint.fingerprint (micro_func ()) in
  let fp' = Fingerprint.fingerprint f in
  let at pcs pc =
    List.find
      (fun (l : Fingerprint.load_fp) -> l.Fingerprint.lf_pc = pc)
      pcs
  in
  Alcotest.(check bool) "a different load now owns the pc" true
    ((at fp.Fingerprint.loads pc).Fingerprint.lf_slice
    <> (at fp'.Fingerprint.loads pc).Fingerprint.lf_slice)

(* ---------------- Remap ---------------- *)

let test_remap_keeps_fresh_hints () =
  let w = micro_w () in
  let doc, prof = profile_doc w in
  let current =
    Fingerprint.fingerprint (w.Workload.build ()).Workload.func
  in
  let r = Remap.run ~current doc in
  Alcotest.(check int) "all kept" (List.length prof.Profiler.hints) r.Remap.kept;
  Alcotest.(check bool) "hints unchanged" true
    (r.Remap.hints = prof.Profiler.hints)

let test_remap_follows_pc_shift () =
  let w = micro_w () in
  let doc, prof = profile_doc w in
  let current =
    Fingerprint.fingerprint
      (Mutate.pad_entry (w.Workload.build ()).Workload.func)
  in
  let r = Remap.run ~current doc in
  Alcotest.(check int) "all remapped"
    (List.length prof.Profiler.hints)
    r.Remap.remapped;
  List.iter2
    (fun (orig : Aptget_pass.hint) (h : Aptget_pass.hint) ->
      Alcotest.(check int) "pc shifted by one block stride"
        (orig.Aptget_pass.load_pc + Layout.block_stride)
        h.Aptget_pass.load_pc)
    prof.Profiler.hints r.Remap.hints

let test_remap_rescales_and_drops_by_config () =
  let w = micro_w () in
  let doc, _ = profile_doc w in
  let current =
    Fingerprint.fingerprint (w.Workload.build ()).Workload.func
  in
  (* An accept bar above 1.0 forces even perfect matches down the
     rescale path; a min_confidence above 1.0 rejects everything. *)
  let r =
    Remap.run ~config:{ Remap.accept = 1.01; min_confidence = 0.5 } ~current doc
  in
  Alcotest.(check int) "all rescaled" (List.length r.Remap.report)
    r.Remap.rescaled;
  let r =
    Remap.run
      ~config:{ Remap.accept = 1.01; min_confidence = 1.01 }
      ~current doc
  in
  Alcotest.(check int) "all dropped" (List.length r.Remap.report) r.Remap.dropped;
  Alcotest.(check (list int)) "no hints survive" []
    (List.map (fun (h : Aptget_pass.hint) -> h.Aptget_pass.load_pc) r.Remap.hints)

let test_remap_legacy_v1_hints () =
  let w = micro_w () in
  let current =
    Fingerprint.fingerprint (w.Workload.build ()).Workload.func
  in
  let hint pc =
    { Aptget_pass.load_pc = pc; distance = 4; site = Inject.Inner; sweep = 1 }
  in
  (* Valid PC, no fingerprint: kept. Stale PC, no fingerprint: dropped. *)
  let doc =
    {
      Hints_file.prov = None;
      entries = Hints_file.entries_of_hints [ hint (delinquent_pc ()); hint 13 ];
    }
  in
  let r = Remap.run ~current doc in
  Alcotest.(check (pair int int)) "kept, dropped" (1, 1)
    (r.Remap.kept, r.Remap.dropped)

let test_remap_dedups_contending_hints () =
  let w = micro_w () in
  let doc, prof = profile_doc w in
  let current =
    Fingerprint.fingerprint
      (Mutate.pad_entry (w.Workload.build ()).Workload.func)
  in
  (* Duplicate every entry: both copies match the same target load, so
     exactly one per target survives. *)
  let doc =
    { doc with Hints_file.entries = doc.Hints_file.entries @ doc.Hints_file.entries }
  in
  let r = Remap.run ~current doc in
  Alcotest.(check int) "one survivor per load"
    (List.length prof.Profiler.hints)
    (List.length r.Remap.hints);
  Alcotest.(check int) "the copies were dropped"
    (List.length prof.Profiler.hints)
    r.Remap.dropped

(* ---------------- Quarantine ---------------- *)

let test_hints_key_order_insensitive () =
  let h1 =
    { Aptget_pass.load_pc = 1; distance = 2; site = Inject.Inner; sweep = 1 }
  in
  let h2 =
    { Aptget_pass.load_pc = 9; distance = 5; site = Inject.Outer; sweep = 3 }
  in
  Alcotest.(check int) "order insensitive"
    (Quarantine.hints_key [ h1; h2 ])
    (Quarantine.hints_key [ h2; h1 ]);
  Alcotest.(check bool) "content sensitive" true
    (Quarantine.hints_key [ h1 ]
    <> Quarantine.hints_key [ { h1 with Aptget_pass.distance = 3 } ])

let test_quarantine_persists () =
  let path = Filename.temp_file "aptget_quarantine" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let q = Quarantine.create ~path () in
      let e =
        {
          Quarantine.q_workload = "micro-res";
          q_program = 0xbeef;
          q_hints = 0x1234;
          q_speedup = 0.91;
        }
      in
      Alcotest.(check bool) "empty at first" false
        (Quarantine.mem q ~workload:"micro-res" ~program:0xbeef ~hints_key:0x1234);
      Quarantine.add q e;
      (* A second store backed by the same file sees the entry. *)
      let q2 = Quarantine.create ~path () in
      match Quarantine.find q2 ~workload:"micro-res" ~program:0xbeef ~hints_key:0x1234 with
      | Some e2 ->
        Alcotest.(check (float 1e-6)) "speedup preserved" 0.91
          e2.Quarantine.q_speedup
      | None -> Alcotest.fail "entry did not survive the file")

let test_quarantine_lenient_load () =
  let path = Filename.temp_file "aptget_quarantine" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc
        "# comment\n\
         not a quarantine line\n\
         workload=w program=ff hints=2a speedup=0.5\n\
         workload= program=zz hints=2a speedup=oops\n";
      close_out oc;
      let q = Quarantine.create ~path () in
      Alcotest.(check int) "only the well-formed entry" 1
        (List.length (Quarantine.entries q));
      Alcotest.(check bool) "found" true
        (Quarantine.mem q ~workload:"w" ~program:0xff ~hints_key:0x2a))

(* ---------------- Veto ---------------- *)

let test_veto_skips_without_static_fallback () =
  let inst = Micro.build micro_params in
  let hints =
    [
      {
        Aptget_pass.load_pc = delinquent_pc ();
        distance = 8;
        site = Inject.Inner;
        sweep = 1;
      };
    ]
  in
  let r =
    Aptget_pass.run inst.Workload.func ~hints ~veto:(fun _ -> Some "held back")
  in
  Alcotest.(check bool) "nothing injected" true (r.Aptget_pass.injected = []);
  Alcotest.(check bool) "not the A&J fallback" false r.Aptget_pass.fellback;
  match r.Aptget_pass.skipped with
  | [ (pc, why) ] ->
    Alcotest.(check int) "the vetoed pc" (delinquent_pc ()) pc;
    Alcotest.(check string) "with the veto's reason" "held back" why
  | _ -> Alcotest.fail "expected one skip record"

(* ---------------- Regression guard ---------------- *)

let floor_ = Pipeline.default_floor

let test_guard_admits_fresh_profile () =
  let w = micro_w () in
  let doc, prof = profile_doc w in
  let g = Pipeline.run_guarded ~doc w in
  (match g.Pipeline.g_outcome with
  | Pipeline.Admitted -> ()
  | o -> Alcotest.fail (Pipeline.guard_outcome_to_string o));
  (* Bit-identical to the unguarded hint application. *)
  let plain = Pipeline.with_hints ~hints:prof.Profiler.hints w in
  Alcotest.(check int) "same cycles as the unguarded run"
    plain.Pipeline.outcome.Machine.cycles
    g.Pipeline.g_final.Pipeline.outcome.Machine.cycles;
  Alcotest.(check bool) "above the floor" true (g.Pipeline.g_speedup >= floor_)

let test_blind_stale_hints_regress () =
  (* Acceptance: the collide mutation makes blindly-applied stale hints
     actively harmful (speedup below 1.0). *)
  let w = micro_w () in
  let doc, _ = profile_doc w in
  let mw = mutated w ~tag:"collide" collide in
  let base = Pipeline.baseline mw in
  let blind = Pipeline.with_hints ~hints:(Hints_file.hints_of_doc doc) mw in
  Alcotest.(check bool) "blind stale hints regress" true
    (Pipeline.speedup ~baseline:base blind < 1.0)

let test_guard_quarantines_and_remembers () =
  let w = micro_w () in
  let doc, _ = profile_doc w in
  let mw = mutated w ~tag:"collide" collide in
  let q = Quarantine.create () in
  let g1 = Pipeline.run_guarded ~quarantine:q ~doc mw in
  (match g1.Pipeline.g_outcome with
  | Pipeline.Quarantined { speedup; _ } ->
    Alcotest.(check bool) "measured below the floor" true (speedup < floor_)
  | o -> Alcotest.fail ("first run: " ^ Pipeline.guard_outcome_to_string o));
  Alcotest.(check bool) "candidate was simulated" true
    (g1.Pipeline.g_candidate <> None);
  Alcotest.(check bool) "final result clears the floor" true
    (g1.Pipeline.g_speedup >= floor_);
  let g2 = Pipeline.run_guarded ~quarantine:q ~doc mw in
  (match g2.Pipeline.g_outcome with
  | Pipeline.Known_bad _ -> ()
  | o -> Alcotest.fail ("second run: " ^ Pipeline.guard_outcome_to_string o));
  Alcotest.(check bool) "no candidate simulation spent" true
    (g2.Pipeline.g_candidate = None);
  Alcotest.(check bool) "still clears the floor" true
    (g2.Pipeline.g_speedup >= floor_)

let test_guard_baseline_fallback_when_aj_misses_floor () =
  let w = micro_w () in
  let doc, _ = profile_doc w in
  let mw = mutated w ~tag:"collide" collide in
  (* A floor above A&J's speedup and above 1.0, so above the regressing
     stale candidate's too: neither clears it, and the guard pins the
     baseline. *)
  let floor =
    1.01
    *. Float.max 1.0
         (Pipeline.speedup ~baseline:(Pipeline.baseline mw) (Pipeline.aj mw))
  in
  let g = Pipeline.run_guarded ~floor ~doc mw in
  (match g.Pipeline.g_outcome with
  | Pipeline.Quarantined { fallback; _ } ->
    Alcotest.(check bool) "pinned to the baseline" true
      (fallback = Pipeline.Pinned_baseline)
  | o -> Alcotest.fail (Pipeline.guard_outcome_to_string o));
  Alcotest.(check int) "exactly the baseline cycle count"
    g.Pipeline.g_baseline.Pipeline.outcome.Machine.cycles
    g.Pipeline.g_final.Pipeline.outcome.Machine.cycles;
  Alcotest.(check bool) "the vetoed hints are on record" true
    (g.Pipeline.g_final.Pipeline.skipped <> [])

(* The pinned fallback is derived from the baseline, not simulated: it
   equals the all-vetoed injection run it stands for, simulated here as
   the reference (an empty set runs the plain kernel, as the pass's
   Algorithm-2 fallback would inject A&J). *)
let test_guard_pinned_fallback_is_vetoed_run () =
  let w = micro_w () in
  let program = Fingerprint.fingerprint (w.Workload.build ()).Workload.func in
  let floor =
    1.01
    *. Float.max 1.0
         (Pipeline.speedup ~baseline:(Pipeline.baseline w) (Pipeline.aj w))
  in
  let hint load_pc distance =
    { Aptget_pass.load_pc; distance; site = Inject.Inner; sweep = 1 }
  in
  let d = delinquent_pc () in
  let other =
    List.find
      (fun pc -> pc <> d)
      (List.map
         (fun (l : Fingerprint.load_fp) -> l.Fingerprint.lf_pc)
         program.Fingerprint.loads)
  in
  List.iter
    (fun (tag, hints) ->
      let q = Quarantine.create () in
      Quarantine.add q
        {
          Quarantine.q_workload = w.Workload.name;
          q_program = program.Fingerprint.program;
          q_hints = Quarantine.hints_key hints;
          q_speedup = 0.5;
        };
      let doc =
        { Hints_file.prov = None; entries = Hints_file.entries_of_hints hints }
      in
      let g = Pipeline.run_guarded ~floor ~quarantine:q ~doc w in
      (match g.Pipeline.g_outcome with
      | Pipeline.Known_bad { fallback = Pipeline.Pinned_baseline; _ } -> ()
      | o -> Alcotest.fail (tag ^ ": " ^ Pipeline.guard_outcome_to_string o));
      let reason = "hint set quarantined (0.500x on record)" in
      let reference =
        (Pipeline.measure
           ~transform:(fun inst ->
             match hints with
             | [] -> ([], [])
             | _ :: _ ->
               Pipeline.apply_hints ~veto:(fun _ -> Some reason) ~hints inst)
           w)
          .Pipeline.tenant
      in
      let f = g.Pipeline.g_final in
      Alcotest.(check bool) (tag ^ ": outcome") true
        (f.Pipeline.outcome = reference.Pipeline.outcome);
      Alcotest.(check bool) (tag ^ ": verified") true
        (f.Pipeline.verified = reference.Pipeline.verified);
      Alcotest.(check bool) (tag ^ ": injected") true
        (f.Pipeline.injected = reference.Pipeline.injected);
      Alcotest.(check (list (pair int string)))
        (tag ^ ": skipped") reference.Pipeline.skipped f.Pipeline.skipped)
    [
      ("no hints", []);
      ("one hint", [ hint d 8 ]);
      ("duplicate hints", [ hint other 4; hint d 8; hint other 16; hint d 2 ]);
    ]

(* A caller-supplied program (here, a fresh build's text shipped back)
   stands in for the one [run_guarded] would take itself: same record,
   wall time aside. *)
let test_guard_program_argument_is_transparent () =
  let w = micro_w () in
  let doc, _ = profile_doc w in
  let strip (g : Pipeline.guarded) =
    let m (x : Pipeline.measurement) = { x with Pipeline.wall_seconds = 0. } in
    {
      g with
      Pipeline.g_baseline = m g.Pipeline.g_baseline;
      g_candidate = Option.map m g.Pipeline.g_candidate;
      g_final = m g.Pipeline.g_final;
    }
  in
  List.iter
    (fun (tag, w) ->
      let run ?program () =
        strip
          (Pipeline.run_guarded ~remap:true
             ~quarantine:(Quarantine.create ()) ?program ~doc w)
      in
      let program =
        let f = (w.Workload.build ()).Workload.func in
        Meas_cache.shipped w ~text:(Printer.func_to_string f) f
      in
      Alcotest.(check bool)
        (tag ^ ": same guarded record with ~program")
        true
        (run () = run ~program ()))
    [ ("fresh", w); ("collide", mutated w ~tag:"collide" collide) ]

(* A caller's profiling run in the memo stands in for the guard's
   baseline: same record, wall time aside, one simulation fewer. *)
let test_guard_baseline_argument_is_transparent () =
  let strip (g : Pipeline.guarded) =
    let m (x : Pipeline.measurement) = { x with Pipeline.wall_seconds = 0. } in
    {
      g with
      Pipeline.g_baseline = m g.Pipeline.g_baseline;
      g_candidate = Option.map m g.Pipeline.g_candidate;
      g_final = m g.Pipeline.g_final;
    }
  in
  let executed () =
    List.length
      (List.filter
         (fun (s : Trace.span) -> s.Trace.name = "stage.measure")
         (Trace.spans ()))
  in
  let w = micro_w () in
  let doc, _ = profile_doc w in
  List.iter
    (fun (tag, w) ->
      let memo = Meas_cache.create () in
      ignore (Pipeline.profiled ~memo w);
      let run ?memo () =
        Trace.reset ();
        Trace.enable ();
        Fun.protect
          ~finally:(fun () ->
            Trace.disable ();
            Trace.reset ())
        @@ fun () ->
        let g =
          Pipeline.run_guarded ?memo ~remap:true
            ~quarantine:(Quarantine.create ()) ~doc w
        in
        (strip g, executed ())
      in
      let g, n = run () and g', n' = run ~memo () in
      Alcotest.(check bool) (tag ^ ": same guarded record") true (g = g');
      Alcotest.(check int) (tag ^ ": one simulation fewer") (n - 1) n')
    [ ("fresh", w); ("collide", mutated w ~tag:"collide" collide) ]

(* A baseline in the memo that would blow the measure budget is
   simulated anyway, so the guard times out exactly as without it. *)
let test_guard_baseline_over_budget_times_out () =
  let w = micro_w () in
  let doc, _ = profile_doc w in
  let memo = Meas_cache.create () in
  let baseline, _ = Pipeline.profiled ~memo w in
  let watchdog =
    {
      Watchdog.default with
      Watchdog.measure_budget =
        {
          Watchdog.max_cycles = baseline.Pipeline.outcome.Machine.cycles - 1;
          max_steps = 0;
        };
    }
  in
  let timeout ?memo () =
    match Pipeline.run_guarded ?memo ~watchdog ~doc w with
    | (_ : Pipeline.guarded) -> Alcotest.fail "the baseline must time out"
    | exception Watchdog.Timed_out t -> Watchdog.timeout_to_string t
  in
  Alcotest.(check string) "same timeout" (timeout ()) (timeout ~memo ())

let test_guard_with_remap_recovers_mutations () =
  (* Acceptance: across the layout mutations, remapping recovers at
     least half of each mutated program's hints, and the guarded
     speedup never lands below the floor. *)
  let w = micro_w () in
  let doc, prof = profile_doc w in
  let n = List.length prof.Profiler.hints in
  Alcotest.(check bool) "profile produced hints" true (n > 0);
  List.iter
    (fun (tag, mutate) ->
      let mw = mutated w ~tag mutate in
      let g =
        Pipeline.run_guarded ~remap:true ~doc mw
      in
      let r = Option.get g.Pipeline.g_remap in
      let recovered = r.Remap.kept + r.Remap.remapped + r.Remap.rescaled in
      Alcotest.(check bool)
        (Printf.sprintf "%s: recovered %d/%d hints" tag recovered n)
        true
        (2 * recovered >= n);
      Alcotest.(check bool)
        (Printf.sprintf "%s: guarded speedup %.3f >= floor" tag
           g.Pipeline.g_speedup)
        true
        (g.Pipeline.g_speedup >= floor_))
    [
      ("pad-entry", Mutate.pad_entry);
      ( "nop-slide",
        fun f ->
          Mutate.insert_dead f
            ~block:(Layout.block_of_pc (delinquent_pc ()))
            ~index:0 ~count:3 );
      ("split-all", fun f -> Mutate.split_all f);
      ("collide", collide);
    ]

let () =
  Alcotest.run "resilience"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "deterministic" `Quick test_fingerprint_deterministic;
          Alcotest.test_case "position invariant" `Quick test_fingerprint_position_invariant;
          Alcotest.test_case "distinguishes loads" `Quick test_fingerprint_distinguishes_loads;
          Alcotest.test_case "similarity/best match" `Quick test_similarity_and_best_match;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "semantics preserved" `Quick test_mutations_preserve_semantics;
          Alcotest.test_case "collide swaps the load" `Quick test_collide_moves_a_load_onto_the_pc;
        ] );
      ( "remap",
        [
          Alcotest.test_case "fresh hints kept" `Quick test_remap_keeps_fresh_hints;
          Alcotest.test_case "follows pc shift" `Quick test_remap_follows_pc_shift;
          Alcotest.test_case "rescale/drop by config" `Quick test_remap_rescales_and_drops_by_config;
          Alcotest.test_case "legacy v1 hints" `Quick test_remap_legacy_v1_hints;
          Alcotest.test_case "dedups contenders" `Quick test_remap_dedups_contending_hints;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "hints_key" `Quick test_hints_key_order_insensitive;
          Alcotest.test_case "persists" `Quick test_quarantine_persists;
          Alcotest.test_case "lenient load" `Quick test_quarantine_lenient_load;
        ] );
      ( "veto",
        [
          Alcotest.test_case "skips without fallback" `Quick test_veto_skips_without_static_fallback;
        ] );
      ( "guard",
        [
          Alcotest.test_case "admits fresh profile" `Quick test_guard_admits_fresh_profile;
          Alcotest.test_case "blind stale hints regress" `Quick test_blind_stale_hints_regress;
          Alcotest.test_case "quarantines and remembers" `Quick test_guard_quarantines_and_remembers;
          Alcotest.test_case "baseline fallback" `Quick test_guard_baseline_fallback_when_aj_misses_floor;
          Alcotest.test_case "pinned fallback is the vetoed run" `Quick
            test_guard_pinned_fallback_is_vetoed_run;
          Alcotest.test_case "remap recovers mutations" `Quick test_guard_with_remap_recovers_mutations;
          Alcotest.test_case "program argument is transparent" `Quick
            test_guard_program_argument_is_transparent;
          Alcotest.test_case "baseline argument is transparent" `Quick
            test_guard_baseline_argument_is_transparent;
          Alcotest.test_case "baseline over budget times out" `Quick
            test_guard_baseline_over_budget_times_out;
        ] );
    ]
