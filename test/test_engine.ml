(* Differential testing of the execution engines.

   The compiled engine must be byte-identical to the reference
   interpreter: same cycles, instrs, loads, prefetches and return
   value; same sampler LBR/PEBS tallies; and the same exception
   payloads ([Fuse_blown], [Deadline_blown], watchdog timeouts) raised
   at the same instruction/cycle. *)

module Machine = Aptget_machine.Machine
module Sampler = Aptget_pmu.Sampler
module Lbr = Aptget_pmu.Lbr
module Watchdog = Aptget_core.Watchdog

let engines = [ Machine.Interp; Machine.Compiled ]

let ename = Machine.engine_to_string

(* Everything an engine run can observe, exceptions included. *)
type run = {
  outcome : (int * int * int * int * int option) option;
  failure : string option;
  lbr : (int * (int * int * int) list) list;
  delinquent : (int * int) list;
  misses : int;
}

let run_with ~engine ?config ?(sample = false) f =
  let mem, base = Branchy.fresh_mem () in
  let sampler =
    if sample then
      Some (Sampler.create ~lbr_period:500 ~pebs_period:2 ())
    else None
  in
  let outcome, failure =
    match Machine.execute ?config ~engine ?sampler ~args:[ base; 7 ] ~mem f with
    | o ->
      ( Some
          ( o.Machine.cycles,
            o.Machine.instructions,
            o.Machine.dyn_loads,
            o.Machine.dyn_prefetches,
            o.Machine.ret ),
        None )
    | exception Machine.Fuse_blown n ->
      (None, Some (Printf.sprintf "Fuse_blown %d" n))
    | exception Machine.Deadline_blown { cycles; limit } ->
      (None, Some (Printf.sprintf "Deadline_blown %d/%d" cycles limit))
  in
  let lbr, delinquent, misses =
    match sampler with
    | None -> ([], [], 0)
    | Some s ->
      ( List.map
          (fun (smp : Sampler.lbr_sample) ->
            ( smp.Sampler.at_cycle,
              Array.to_list smp.Sampler.entries
              |> List.map (fun (e : Lbr.entry) ->
                     (e.Lbr.branch_pc, e.Lbr.target_pc, e.Lbr.cycle)) ))
          (Sampler.lbr_samples s),
        Sampler.delinquent_loads s,
        Sampler.miss_samples s )
  in
  { outcome; failure; lbr; delinquent; misses }

let check_identical what runs =
  match runs with
  | [] | [ _ ] -> ()
  | (e0, r0) :: rest ->
    List.iter
      (fun (e, r) ->
        let ctx = Printf.sprintf "%s: %s vs %s" what (ename e0) (ename e) in
        Alcotest.(check bool) (ctx ^ " outcome") true (r0.outcome = r.outcome);
        Alcotest.(check (option string)) (ctx ^ " failure") r0.failure r.failure;
        Alcotest.(check bool) (ctx ^ " lbr") true (r0.lbr = r.lbr);
        Alcotest.(check bool)
          (ctx ^ " delinquent") true
          (r0.delinquent = r.delinquent);
        Alcotest.(check int) (ctx ^ " misses") r0.misses r.misses)
      rest

let all_engines ?config ?sample f =
  List.map (fun e -> (e, run_with ~engine:e ?config ?sample f)) engines

(* ---------------- pinned parity tests ---------------- *)

(* Thousands of dispatches through the data-dependent diamond. *)
let test_long_run_parity () =
  let f = Branchy.kernel ~n:4000 ~stride:17 ~with_prefetch:true ~with_store:true () in
  check_identical "long-run" (all_engines f)

(* Every engine dispatches exactly one block per step, for the whole
   run: the co-run scheduler interleaves streams per step, so its
   schedule is engine-independent only if this holds. *)
let test_one_block_per_step () =
  let f = Branchy.kernel ~n:4000 ~stride:17 ~with_prefetch:true ~with_store:true () in
  let stepper engine =
    let mem, base = Branchy.fresh_mem () in
    Machine.make_stepper ~engine ~args:[ base; 7 ] ~mem f
  in
  let i = stepper Machine.Interp and c = stepper Machine.Compiled in
  let rec run steps =
    let more = i.Machine.sp_step () in
    if more <> c.Machine.sp_step () then
      Alcotest.failf "step %d: one engine finished first" steps;
    if i.Machine.sp_cycle () <> c.Machine.sp_cycle () then
      Alcotest.failf "step %d: interp cycle %d, compiled cycle %d" steps
        (i.Machine.sp_cycle ()) (c.Machine.sp_cycle ());
    if more then run (steps + 1) else steps
  in
  Alcotest.(check bool) "ran past 4096 dispatches" true (run 1 > 4096)

let test_sampler_parity () =
  let f = Branchy.kernel ~n:1500 ~stride:29 ~with_prefetch:false ~with_store:false () in
  check_identical "sampler" (all_engines ~sample:true f)

let test_stall_on_use_parity () =
  let f = Branchy.kernel ~n:1200 ~stride:13 ~with_prefetch:true ~with_store:true () in
  check_identical "stall-on-use"
    (all_engines ~config:(Machine.stall_on_use_config ()) f);
  check_identical "stall-on-use sampled"
    (all_engines ~config:(Machine.stall_on_use_config ()) ~sample:true f)

let test_fuse_parity () =
  let f = Branchy.kernel ~n:100_000 ~stride:7 ~with_prefetch:false ~with_store:false () in
  let config =
    { Machine.default_config with Machine.max_instructions = 10_000 }
  in
  let runs = all_engines ~config f in
  check_identical "fuse" runs;
  List.iter
    (fun (e, r) ->
      (* The interpreter charges one instruction at a time, so the blow
         payload is always exactly fuse + 1 — pinned here so the
         compiled engine's batch settlement can't drift. *)
      Alcotest.(check (option string))
        (ename e ^ " fuse payload")
        (Some "Fuse_blown 10001") r.failure)
    runs

let test_deadline_parity () =
  let f = Branchy.kernel ~n:100_000 ~stride:3 ~with_prefetch:true ~with_store:false () in
  List.iter
    (fun core ->
      let config =
        match core with
        | `Blocking -> { Machine.default_config with Machine.max_cycles = 50_000 }
        | `Sou -> { (Machine.stall_on_use_config ()) with Machine.max_cycles = 50_000 }
      in
      let runs = all_engines ~config f in
      check_identical "deadline" runs;
      List.iter
        (fun ((_ : Machine.engine), r) ->
          match r.failure with
          | Some s ->
            Alcotest.(check bool)
              "deadline failure shape" true
              (String.length s >= 14 && String.sub s 0 14 = "Deadline_blown")
          | None -> Alcotest.fail "expected Deadline_blown")
        runs)
    [ `Blocking; `Sou ]

(* The watchdog's cycle budget is enforced through the same machine
   fuse; its [t_spent] must name the same cycle under every engine. *)
let test_watchdog_parity () =
  let f = Branchy.kernel ~n:100_000 ~stride:11 ~with_prefetch:false ~with_store:false () in
  let wd_config =
    {
      Watchdog.unlimited with
      Watchdog.measure_budget = { Watchdog.max_cycles = 40_000; max_steps = 0 };
    }
  in
  let spent =
    List.map
      (fun engine ->
        let mem, base = Branchy.fresh_mem () in
        match
          Watchdog.run ~config:wd_config ~machine:Machine.default_config
            Watchdog.Measure
            (fun machine ->
              Machine.set_default_engine engine;
              Machine.execute ~config:machine ~args:[ base; 7 ] ~mem f)
        with
        | _ -> Alcotest.fail "expected Timed_out"
        | exception Watchdog.Timed_out t ->
          Alcotest.(check int)
            (ename engine ^ " watchdog limit")
            40_000 t.Watchdog.t_limit;
          t.Watchdog.t_spent)
      engines
  in
  (match spent with
  | a :: rest ->
    List.iter (fun b -> Alcotest.(check int) "watchdog t_spent" a b) rest
  | [] -> ());
  Machine.set_default_engine Machine.Compiled

(* ---------------- property: mutate-derived programs ---------------- *)

(* Random structural mutations (entry padding, dead code, block
   splits) over randomly parameterized kernels; every engine must
   agree on the full observable tuple and the sampler tallies. *)
let prop_mutated_programs =
  QCheck.Test.make ~name:"engines agree on mutated programs" ~count:30
    QCheck.(
      quad (int_range 1 400) (int_range 1 64) (int_range 0 3) small_int)
    (fun (n, stride, mutations, salt) ->
      let f =
        Branchy.kernel ~n ~stride
          ~with_prefetch:(salt land 1 = 0)
          ~with_store:(salt land 2 = 0)
          ()
      in
      let f = if mutations land 1 <> 0 then Mutate.pad_entry f else f in
      let f =
        if mutations land 2 <> 0 then Mutate.split_all ~min_instrs:2 f else f
      in
      Verify.check_exn f;
      let runs = all_engines ~sample:(salt land 4 = 0) f in
      match runs with
      | [] -> true
      | (_, r0) :: rest -> List.for_all (fun (_, r) -> r = r0) rest)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "long-run parity" `Quick test_long_run_parity;
          Alcotest.test_case "one block per step" `Quick
            test_one_block_per_step;
          Alcotest.test_case "sampler parity" `Quick test_sampler_parity;
          Alcotest.test_case "stall-on-use parity" `Quick
            test_stall_on_use_parity;
          Alcotest.test_case "fuse parity" `Quick test_fuse_parity;
          Alcotest.test_case "deadline parity" `Quick test_deadline_parity;
          Alcotest.test_case "watchdog parity" `Quick test_watchdog_parity;
          QCheck_alcotest.to_alcotest prop_mutated_programs;
        ] );
    ]
