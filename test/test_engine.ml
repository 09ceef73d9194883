(* Differential testing of the execution engines.

   The compiled engine must be byte-identical to the reference
   interpreter: same cycles, instrs, loads, prefetches and return
   value; same sampler LBR/PEBS tallies and fault stats; same window
   reports; the same hierarchy counters; the same memory, word for
   word, after a run or a blown fuse; and the same exception payloads
   ([Fuse_blown], [Deadline_blown], watchdog timeouts, missing phi
   edges, out-of-bounds accesses) raised at the same
   instruction/cycle. Memory after [Deadline_blown] is unspecified (the
   compiled engine's functional half may have run ahead) and is not
   compared.

   The compiled engine runs in one of two placements: its functional
   half on the consuming domain, or on a helper domain when the domain
   budget ([APTGET_JOBS]) has a spare slot. The property and the
   pinned placement tests run under both. *)

module Machine = Aptget_machine.Machine
module Sampler = Aptget_pmu.Sampler
module Faults = Aptget_pmu.Faults
module Lbr = Aptget_pmu.Lbr
module Watchdog = Aptget_core.Watchdog
module Hierarchy = Aptget_cache.Hierarchy
module Memory = Aptget_mem.Memory
module Pool = Aptget_util.Pool
module Crc32 = Aptget_store.Crc32

let engines = [ Machine.Interp; Machine.Compiled ]

let ename = Machine.engine_to_string

(* Everything an engine run can observe, exceptions included. *)
type run = {
  outcome : (int * int * int * int * int option) option;
  failure : string option;
  lbr : (int * (int * int * int) list) list;
  delinquent : (int * int) list;
  misses : int;
  fault_stats : Faults.stats option;
  windows : Machine.window_report list;
  counters : Hierarchy.counters;
  mem_crc : int option;  (* None after [Deadline_blown] *)
}

(* CRC of every allocated word. *)
let mem_crc mem =
  let n = Memory.size_words mem in
  let b = Bytes.create (8 * n) in
  for a = 0 to n - 1 do
    Bytes.set_int64_le b (8 * a) (Int64.of_int (Memory.get mem a))
  done;
  Crc32.string (Bytes.unsafe_to_string b)

(* Run [f] with the domain budget set to [jobs]: "1" keeps the
   compiled engine's functional half on the consuming domain, "2"
   leaves a slot for a helper. *)
let with_jobs jobs f =
  let prev = Sys.getenv_opt "APTGET_JOBS" in
  Unix.putenv "APTGET_JOBS" jobs;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv "APTGET_JOBS"
        (match prev with
        | Some v -> v
        | None -> string_of_int (Domain.recommended_domain_count ())))

let make_sampler ?faults ?(lbr_period = 500) () =
  let faults =
    Option.map
      (fun seed -> Faults.create { Faults.default_faulty with Faults.seed })
      faults
  in
  Sampler.create ~lbr_period ~pebs_period:2 ?faults ()

let lbr_of s =
  Sampler.fold_snapshots s ~init:[] (fun acc smp ->
      ( Sampler.at_cycle s smp,
        List.init (Sampler.entry_count s smp) (fun i ->
            ( Sampler.branch_pc s smp i,
              Sampler.target_pc s smp i,
              Sampler.cycle s smp i )) )
      :: acc)
  |> List.rev

let ring_of l =
  List.init (Lbr.length l) (fun i ->
      (Lbr.branch_pc l i, Lbr.target_pc l i, Lbr.cycle l i))

(* [sampler] is used as given, so a caller can carry one across runs. *)
let run_with ~engine ?(config = Machine.default_config) ?sampler
    ?window_cycles f =
  let mem, base = Branchy.fresh_mem () in
  let hierarchy = Hierarchy.create config.Machine.hierarchy in
  let windows = ref [] in
  let on_window w = windows := w :: !windows in
  let outcome, failure =
    match
      Machine.execute ~config ~engine ~hierarchy ?sampler ?window_cycles
        ~on_window ~args:[ base; 7 ] ~mem f
    with
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
    | exception Invalid_argument m -> (None, Some ("Invalid_argument " ^ m))
  in
  let deadline =
    match failure with
    | Some s -> String.starts_with ~prefix:"Deadline_blown" s
    | None -> false
  in
  let lbr, delinquent, misses, fault_stats =
    match sampler with
    | None -> ([], [], 0, None)
    | Some s ->
      ( lbr_of s,
        Sampler.delinquent_loads s,
        Sampler.miss_samples s,
        Sampler.fault_stats s )
  in
  {
    outcome;
    failure;
    lbr;
    delinquent;
    misses;
    fault_stats;
    windows = List.rev !windows;
    counters = Hierarchy.counters hierarchy;
    mem_crc = (if deadline then None else Some (mem_crc mem));
  }

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
        Alcotest.(check int) (ctx ^ " misses") r0.misses r.misses;
        Alcotest.(check bool)
          (ctx ^ " fault stats") true
          (r0.fault_stats = r.fault_stats);
        Alcotest.(check bool) (ctx ^ " windows") true (r0.windows = r.windows);
        Alcotest.(check bool)
          (ctx ^ " counters") true
          (r0.counters = r.counters);
        Alcotest.(check (option int)) (ctx ^ " memory crc") r0.mem_crc r.mem_crc)
      rest

(* [sampler] makes a fresh sampler for each engine's run. *)
let all_engines ?config ?sampler ?window_cycles f =
  List.map
    (fun e ->
      let sampler = Option.map (fun mk -> mk ()) sampler in
      (e, run_with ~engine:e ?config ?sampler ?window_cycles f))
    engines

let default_sampler () = make_sampler ()

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
  check_identical "sampler" (all_engines ~sampler:default_sampler f)

let test_stall_on_use_parity () =
  let f = Branchy.kernel ~n:1200 ~stride:13 ~with_prefetch:true ~with_store:true () in
  check_identical "stall-on-use"
    (all_engines ~config:(Machine.stall_on_use_config ()) f);
  check_identical "stall-on-use sampled"
    (all_engines ~config:(Machine.stall_on_use_config ()) ~sampler:default_sampler f)

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

(* Every fuse value over a short kernel with stores: the blow lands on
   every instruction of the loop body, and no store after it may reach
   memory. *)
let test_no_write_past_fuse () =
  let f = Branchy.kernel ~n:12 ~stride:5 ~with_prefetch:true ~with_store:true () in
  List.iter
    (fun (core, config) ->
      for fuse = 1 to 250 do
        check_identical
          (Printf.sprintf "%s fuse %d" core fuse)
          (all_engines ~config:{ config with Machine.max_instructions = fuse } f)
      done)
    [
      ("blocking", Machine.default_config);
      ("stall-on-use", Machine.stall_on_use_config ());
    ]

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
   fuse; its [t_spent] must name the same cycle under every engine.
   The closure switches the process-wide engine, so it is restored
   however the test ends. *)
let test_watchdog_parity () =
  let f = Branchy.kernel ~n:100_000 ~stride:11 ~with_prefetch:false ~with_store:false () in
  let wd_config =
    {
      Watchdog.unlimited with
      Watchdog.measure_budget = { Watchdog.max_cycles = 40_000; max_steps = 0 };
    }
  in
  let prev = Machine.default_engine () in
  Fun.protect ~finally:(fun () -> Machine.set_default_engine prev)
  @@ fun () ->
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
  match spent with
  | a :: rest ->
    List.iter (fun b -> Alcotest.(check int) "watchdog t_spent" a b) rest
  | [] -> ()

let cores =
  [
    ("blocking", Machine.default_config);
    ("stall-on-use", Machine.stall_on_use_config ());
  ]

(* Window reports are part of what an engine run observes: online
   drift detection reads them. Every field must match, on both cores,
   with and without a sampler. *)
let test_window_parity () =
  let f = Branchy.kernel ~n:1500 ~stride:23 ~with_prefetch:true ~with_store:true () in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun sampled ->
          let sampler = if sampled then Some default_sampler else None in
          let runs = all_engines ~config ?sampler ~window_cycles:4_001 f in
          check_identical ("windows " ^ name) runs;
          List.iter
            (fun (_, r) ->
              Alcotest.(check bool)
                (name ^ ": several windows") true
                (List.length r.windows > 3))
            runs)
        [ false; true ])
    cores

(* Online re-profiling carries one sampler across epochs and re-arms
   it with [Sampler.reset ~epoch_cycle] in between. Each run must read
   the sampler's due cycle afresh: the second run starts at cycle 0
   while the first left the sampler due far past it. *)
let test_sampler_reuse () =
  let f = Branchy.kernel ~n:1200 ~stride:19 ~with_prefetch:true ~with_store:false () in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun faults ->
          let two_runs engine =
            let s = make_sampler ?faults ~lbr_period:700 () in
            let r1 = run_with ~engine ~config ~sampler:s f in
            Sampler.reset ~epoch_cycle:123 s;
            let r2 = run_with ~engine ~config ~sampler:s f in
            (r1, r2)
          in
          let i1, i2 = two_runs Machine.Interp in
          let c1, c2 = two_runs Machine.Compiled in
          Alcotest.(check bool)
            (name ^ ": second run sampled") true (i2.lbr <> []);
          Alcotest.(check bool)
            (name ^ ": first sample of the second run at 823 or later") true
            (match i2.lbr with (at, _) :: _ -> at >= 823 | [] -> false);
          check_identical (name ^ " first run")
            [ (Machine.Interp, i1); (Machine.Compiled, c1) ];
          check_identical (name ^ " second run")
            [ (Machine.Interp, i2); (Machine.Compiled, c2) ])
        [ None; Some 5 ])
    cores

(* A phi with no edge from the block a branch came from. The
   interpreter raises at the start of the step that enters the phi's
   block, after the branch was charged and recorded; the compiled
   engine must raise the same message in the same step. *)
let test_missing_phi_edge () =
  let f = Branchy.kernel ~n:400 ~stride:17 ~with_prefetch:false ~with_store:false () in
  (* The diamond's join is the one block with a single phi (the loop
     header carries one per loop variable); drop its edge from the
     second arm. *)
  let join =
    let rec find b =
      match f.Ir.blocks.(b).Ir.phis with [ _ ] -> b | _ -> find (b + 1)
    in
    find 0
  in
  let dropped =
    match f.Ir.blocks.(join).Ir.phis with
    | [ ({ Ir.incoming = [ kept; (gone, _) ]; _ } as p) ] ->
      f.Ir.blocks.(join).Ir.phis <- [ { p with Ir.incoming = [ kept ] } ];
      gone
    | _ -> Alcotest.fail "expected a join phi with two incoming edges"
  in
  let expected =
    match Compile.missing_phi_edge f ~cur:join ~prev:dropped with
    | _ -> assert false
    | exception Invalid_argument m -> m
  in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun sampled ->
          let stepper engine =
            let mem, base = Branchy.fresh_mem () in
            let sampler = if sampled then Some (default_sampler ()) else None in
            ( Machine.make_stepper ~config ~engine ?sampler ~args:[ base; 7 ]
                ~mem f,
              sampler )
          in
          let i, si = stepper Machine.Interp in
          let c, sc = stepper Machine.Compiled in
          let ring = Option.map (fun s -> ring_of (Sampler.lbr s)) in
          let step sp =
            match sp.Machine.sp_step () with
            | more -> Ok more
            | exception Invalid_argument m -> Error m
          in
          let rec run steps =
            let ri = step i and rc = step c in
            if ri <> rc then
              Alcotest.failf "%s step %d: engines disagree" name steps;
            if i.Machine.sp_cycle () <> c.Machine.sp_cycle () then
              Alcotest.failf "%s step %d: interp cycle %d, compiled cycle %d"
                name steps (i.Machine.sp_cycle ()) (c.Machine.sp_cycle ());
            match ri with
            | Ok true -> run (steps + 1)
            | Ok false -> Alcotest.failf "%s: ran to completion" name
            | Error m ->
              Alcotest.(check string) (name ^ " message") expected m;
              Alcotest.(check bool)
                (name ^ ": same LBR ring at the raise") true
                (ring si = ring sc);
              steps
          in
          Alcotest.(check bool) (name ^ ": raised after the entry step") true
            (run 1 > 2))
        [ false; true ])
    cores

(* ---------------- placement and edge cases ---------------- *)

let both_placements = [ ("helper", "2"); ("one domain", "1") ]

(* A long run under each placement: a helper is started exactly when
   the budget has a slot, and the engines agree either way. *)
let test_placements () =
  let f = Branchy.kernel ~n:20_000 ~stride:17 ~with_prefetch:true ~with_store:true () in
  List.iter
    (fun (name, jobs) ->
      with_jobs jobs @@ fun () ->
      let before = Pool.helpers_started () in
      List.iter
        (fun (core, config) ->
          check_identical (name ^ " " ^ core) (all_engines ~config f))
        cores;
      Alcotest.(check bool)
        (name ^ ": helper started") (jobs = "2")
        (Pool.helpers_started () > before);
      Alcotest.(check int) (name ^ ": no helper left") 0
        (Pool.running_helpers ()))
    both_placements

(* Each edge case must match the interpreter in exception, payload,
   hierarchy counters and memory, under both placements and on both
   cores. *)
let check_edge what ?(expect = "") f =
  List.iter
    (fun (name, jobs) ->
      with_jobs jobs @@ fun () ->
      List.iter
        (fun (core, config) ->
          let what = Printf.sprintf "%s (%s, %s)" what name core in
          let runs = all_engines ~config f in
          check_identical what runs;
          List.iter
            (fun (_, r) ->
              let failure = Option.value r.failure ~default:"" in
              if not (String.starts_with ~prefix:expect failure) then
                Alcotest.failf "%s: expected %S, got %S" what expect failure)
            runs)
        cores)
    both_placements

(* A loop whose body is one block with [loads] loads, summed. *)
let wide_block ~loads ~iters =
  let b = Builder.create ~name:"wide" ~nparams:2 in
  let base = List.hd (Builder.params b) in
  let final =
    Builder.for_loop_acc b ~from:(Ir.Imm 0) ~bound:(`Op (Ir.Imm iters))
      ~init:[ Ir.Imm 0 ]
      (fun b _ accs ->
        let acc = ref (List.hd accs) in
        for k = 0 to loads - 1 do
          let v = Builder.load b (Builder.add b base (Ir.Imm (k * 7 mod 2048))) in
          acc := Builder.add b !acc v
        done;
        [ !acc ])
  in
  Builder.ret b (Some (List.hd final));
  Builder.finish b

let test_block_wider_than_ring () =
  check_edge "20000 loads in one block" (wide_block ~loads:20_000 ~iters:3)

let test_work_only_loop () =
  let b = Builder.create ~name:"work" ~nparams:2 in
  Builder.for_loop b ~from:(Ir.Imm 0) ~bound:(Ir.Imm 5_000) (fun b i ->
      Builder.work b (Builder.binop b Ir.And i (Ir.Imm 7)));
  Builder.ret b None;
  let f = Builder.finish b in
  check_edge "work-only loop" f;
  List.iter
    (fun (core, config) ->
      let runs =
        all_engines ~config:{ config with Machine.max_instructions = 9_001 } f
      in
      check_identical ("work-only loop, fuse " ^ core) runs;
      List.iter
        (fun (_, r) ->
          Alcotest.(check (option string))
            "fuse payload" (Some "Fuse_blown 9002") r.failure)
        runs)
    cores

let test_negative_prefetch () =
  let b = Builder.create ~name:"negpf" ~nparams:2 in
  let base = List.hd (Builder.params b) in
  Builder.for_loop b ~from:(Ir.Imm 0) ~bound:(Ir.Imm 3_000) (fun b i ->
      Builder.prefetch b (Ir.Imm (-8));
      Builder.prefetch b (Builder.sub b (Ir.Imm (-1)) i);
      ignore (Builder.load b (Builder.add b base (Builder.binop b Ir.And i (Ir.Imm 1023)))));
  Builder.ret b None;
  check_edge "negative prefetch" (Builder.finish b)

(* The hierarchy sees an out-of-bounds load before [Memory.get]
   raises; an out-of-bounds store raises before its charge. Stores
   before the fault land in memory on both engines. *)
let test_out_of_bounds () =
  let oob ~store =
    let b = Builder.create ~name:"oob" ~nparams:2 in
    let base = List.hd (Builder.params b) in
    Builder.for_loop b ~from:(Ir.Imm 0) ~bound:(Ir.Imm 4_000) (fun b i ->
        let addr = Builder.add b base (Builder.mul b i (Ir.Imm 61)) in
        if store then Builder.store b ~addr ~value:i
        else begin
          Builder.store b ~addr:base ~value:i;
          ignore (Builder.load b addr)
        end);
    Builder.ret b None;
    Builder.finish b
  in
  check_edge "out-of-bounds load" ~expect:"Invalid_argument" (oob ~store:false);
  check_edge "out-of-bounds store" ~expect:"Invalid_argument" (oob ~store:true)

let test_missing_phi_counters () =
  let f = Branchy.kernel ~n:4000 ~stride:17 ~with_prefetch:true ~with_store:true () in
  let join =
    let rec find b =
      match f.Ir.blocks.(b).Ir.phis with [ _ ] -> b | _ -> find (b + 1)
    in
    find 0
  in
  (match f.Ir.blocks.(join).Ir.phis with
  | [ ({ Ir.incoming = [ kept; _ ]; _ } as p) ] ->
    f.Ir.blocks.(join).Ir.phis <- [ { p with Ir.incoming = [ kept ] } ]
  | _ -> Alcotest.fail "expected a join phi with two incoming edges");
  check_edge "missing phi edge" ~expect:"Invalid_argument" f

(* A deadline blown after the producer moved to a helper: every
   execute re-raises only once its producer is joined. *)
let test_deadline_leaves_no_producer () =
  let f = Branchy.kernel ~n:100_000 ~stride:3 ~with_prefetch:true ~with_store:true () in
  with_jobs "2" @@ fun () ->
  let before = Pool.helpers_started () in
  List.iter
    (fun (core, config) ->
      let config = { config with Machine.max_cycles = 200_001 } in
      for k = 1 to 50 do
        let mem, base = Branchy.fresh_mem () in
        (match
           Machine.execute ~config ~engine:Machine.Compiled ~args:[ base; 7 ]
             ~mem f
         with
        | _ -> Alcotest.fail "expected Deadline_blown"
        | exception Machine.Deadline_blown _ -> ());
        if Pool.running_helpers () <> 0 then
          Alcotest.failf "%s execute %d: a producer is still running" core k
      done)
    cores;
  Alcotest.(check bool)
    "helpers were used" true
    (Pool.helpers_started () >= before + 100)

(* ---------------- property: mutate-derived programs ---------------- *)

(* Random structural mutations (entry padding, dead code, block
   splits) over randomly parameterized kernels, run on both cores with
   randomly placed events: an LBR period as short as one cycle (under
   the default fault mix or clean), a window length, an odd cycle
   deadline and an instruction fuse. Events land inside ALU batches,
   so every crossing must be serviced at its exact cycle, and none
   past a fuse blow. Every engine must agree on everything a run
   observes. *)
type case = {
  n : int;
  stride : int;
  mutations : int;
  salt : int;
  lbr_period : int option;
  fault_seed : int option;
  window_cycles : int option;
  max_cycles : int;
  fuse : int option;
}

let case_gen =
  QCheck.Gen.(
    let* n = oneof [ int_range 1 400; int_range 400 3_000 ] in
    let* stride = int_range 1 64 in
    let* mutations = int_range 0 3 in
    let* salt = small_int in
    let* lbr_period = opt (oneofl [ 1; 2; 3; 7; 61; 500 ]) in
    let* fault_seed = opt small_int in
    let* window_cycles = opt (int_range 1 3_000) in
    let* max_cycles =
      oneof [ return 0; map (fun k -> (2 * k) + 1) (int_range 0 6_000) ]
    in
    let+ fuse = opt (int_range 1 8_000) in
    {
      n;
      stride;
      mutations;
      salt;
      lbr_period;
      fault_seed;
      window_cycles;
      max_cycles;
      fuse;
    })

let case_print c =
  let o = function None -> "-" | Some v -> string_of_int v in
  Printf.sprintf
    "n=%d stride=%d mutations=%d salt=%d lbr_period=%s fault_seed=%s \
     window_cycles=%s max_cycles=%d fuse=%s"
    c.n c.stride c.mutations c.salt (o c.lbr_period) (o c.fault_seed)
    (o c.window_cycles) c.max_cycles (o c.fuse)

let prop_mutated_programs (placement, jobs) =
  QCheck.Test.make
    ~name:("engines agree on mutated programs" ^ placement)
    ~count:30 ~long_factor:20
    (QCheck.make ~print:case_print case_gen)
    (fun c ->
      with_jobs jobs @@ fun () ->
      let f =
        Branchy.kernel ~n:c.n ~stride:c.stride
          ~with_prefetch:(c.salt land 1 = 0)
          ~with_store:(c.salt land 2 = 0)
          ()
      in
      let f = if c.mutations land 1 <> 0 then Mutate.pad_entry f else f in
      let f =
        if c.mutations land 2 <> 0 then Mutate.split_all ~min_instrs:2 f else f
      in
      Verify.check_exn f;
      let sampler =
        Option.map
          (fun lbr_period () ->
            make_sampler ?faults:c.fault_seed ~lbr_period ())
          c.lbr_period
      in
      List.for_all
        (fun (_, core) ->
          let config =
            {
              core with
              Machine.max_cycles = c.max_cycles;
              max_instructions =
                Option.value c.fuse ~default:core.Machine.max_instructions;
            }
          in
          match
            all_engines ~config ?sampler ?window_cycles:c.window_cycles f
          with
          | [] -> true
          | (_, r0) :: rest -> List.for_all (fun (_, r) -> r = r0) rest)
        cores)

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
          Alcotest.test_case "no write past a blown fuse" `Quick
            test_no_write_past_fuse;
          Alcotest.test_case "deadline parity" `Quick test_deadline_parity;
          Alcotest.test_case "watchdog parity" `Quick test_watchdog_parity;
          Alcotest.test_case "window parity" `Quick test_window_parity;
          Alcotest.test_case "sampler reuse across runs" `Quick
            test_sampler_reuse;
          Alcotest.test_case "missing phi edge" `Quick test_missing_phi_edge;
          Alcotest.test_case "placements" `Quick test_placements;
          Alcotest.test_case "block wider than the ring" `Quick
            test_block_wider_than_ring;
          Alcotest.test_case "work-only loop" `Quick test_work_only_loop;
          Alcotest.test_case "negative prefetch" `Quick test_negative_prefetch;
          Alcotest.test_case "out-of-bounds access" `Quick test_out_of_bounds;
          Alcotest.test_case "missing phi edge, counters" `Quick
            test_missing_phi_counters;
          Alcotest.test_case "deadline leaves no producer" `Quick
            test_deadline_leaves_no_producer;
        ]
        @ List.map
            (fun p -> QCheck_alcotest.to_alcotest (prop_mutated_programs p))
            [ ("", "2"); (", one domain", "1") ] );
    ]
