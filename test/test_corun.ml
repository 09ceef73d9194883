(* Differential testing of the co-run scheduler, plus the pin tests
   for this PR's bug sweep.

   Corun.run is the multi-tenant face of the machine: a solo schedule
   must reproduce Machine.execute byte-for-byte, and a multi-stream
   schedule must produce identical per-stream outcomes under every
   engine and every policy.
   Pipeline's co-run executor must be exactly that scheduler over the
   transformed tenant and a fresh co-runner, and must report a
   co-runner that fails its check.
   The pins lock three fixed bugs: the hardware prefetcher walking
   past the memory extent, Model.top_peak assuming a sorted peak
   list, and positional List.nth in builder specs failing without a
   trail back to the malformed spec. *)

module Machine = Aptget_machine.Machine
module Corun = Aptget_machine.Corun
module Memory = Aptget_mem.Memory
module Hierarchy = Aptget_cache.Hierarchy
module Model = Aptget_profile.Model
module Rng = Aptget_util.Rng

let engines = [ Machine.Interp; Machine.Compiled ]

let ename = Machine.engine_to_string

(* Everything comparable in an outcome. [counters] is a plain record
   of ints, so polymorphic equality over the whole tuple is sound. *)
let obs (o : Machine.outcome) =
  ( o.Machine.cycles,
    o.Machine.instructions,
    o.Machine.dyn_loads,
    o.Machine.dyn_prefetches,
    o.Machine.ret,
    o.Machine.counters )

(* Two fixed tenants used by the pinned multi-stream tests. *)
let tenant_a () =
  let f = Branchy.kernel ~name:"a" ~n:1500 ~stride:17 ~with_prefetch:true
      ~with_store:true ()
  in
  let mem, base = Branchy.fresh_mem ~seed:97 () in
  (f, mem, base)

let tenant_b () =
  let f = Branchy.kernel ~name:"b" ~n:900 ~stride:29 ~with_prefetch:false
      ~with_store:false ()
  in
  let mem, base = Branchy.fresh_mem ~seed:41 () in
  (f, mem, base)

let corun_obs ~engine ~policy () =
  let fa, mema, basea = tenant_a () in
  let fb, memb, baseb = tenant_b () in
  Corun.run ~engine ~policy
    [
      Corun.stream ~args:[ basea; 7 ] ~name:"a" ~mem:mema fa;
      Corun.stream ~args:[ baseb; 3 ] ~name:"b" ~mem:memb fb;
    ]
  |> List.map (fun so -> (so.Corun.so_name, obs so.Corun.so_outcome))

(* ---------------- solo pin ---------------- *)

(* A single-stream schedule is just the machine: same cycles, same
   counters, same return value as Machine.execute, under every
   engine. *)
let test_solo_matches_execute () =
  List.iter
    (fun engine ->
      let f, mem, base = tenant_a () in
      let solo = Machine.execute ~engine ~args:[ base; 7 ] ~mem f in
      let f', mem', base' = tenant_a () in
      match
        Corun.run ~engine
          [ Corun.stream ~args:[ base'; 7 ] ~name:"a" ~mem:mem' f' ]
      with
      | [ so ] ->
        Alcotest.(check string) "name" "a" so.Corun.so_name;
        Alcotest.(check bool)
          (ename engine ^ " solo outcome")
          true
          (obs solo = obs so.Corun.so_outcome)
      | l ->
        Alcotest.fail
          (Printf.sprintf "expected 1 outcome, got %d" (List.length l)))
    engines

(* ---------------- engine parity, both policies ---------------- *)

let test_corun_engine_parity () =
  List.iter
    (fun policy ->
      let runs =
        List.map (fun e -> (e, corun_obs ~engine:e ~policy ())) engines
      in
      match runs with
      | (e0, r0) :: rest ->
        List.iter
          (fun (e, r) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s vs %s"
                 (Corun.policy_to_string policy)
                 (ename e0) (ename e))
              true (r0 = r))
          rest
      | [] -> ())
    [ Corun.Round_robin; Corun.Cycle_ratio [ 2; 1 ] ]

let test_corun_determinism () =
  let engine = Machine.Compiled in
  List.iter
    (fun policy ->
      let r1 = corun_obs ~engine ~policy () in
      let r2 = corun_obs ~engine ~policy () in
      Alcotest.(check bool)
        (Corun.policy_to_string policy ^ " repeat")
        true (r1 = r2))
    [ Corun.Round_robin; Corun.Cycle_ratio [ 3; 1 ] ]

(* Tenants must not observe each other's data: a co-run return value
   equals the solo return value, whatever the interleaving. *)
let test_corun_isolation () =
  let f, mem, base = tenant_a () in
  let solo = Machine.execute ~args:[ base; 7 ] ~mem f in
  List.iter
    (fun policy ->
      match corun_obs ~engine:Machine.Interp ~policy () with
      | (_, (_, _, _, _, ret, _)) :: _ ->
        Alcotest.(check bool)
          (Corun.policy_to_string policy ^ " tenant ret")
          true
          (ret = solo.Machine.ret)
      | [] -> Alcotest.fail "no outcomes")
    [ Corun.Round_robin; Corun.Cycle_ratio [ 1; 4 ] ]

let test_corun_invalid_args () =
  Alcotest.check_raises "empty" (Invalid_argument "Corun.run: no streams")
    (fun () -> ignore (Corun.run []));
  let fa, mema, basea = tenant_a () in
  let fb, memb, baseb = tenant_b () in
  Alcotest.check_raises "weights"
    (Invalid_argument "Corun.run: cycle-ratio weights must be positive")
    (fun () ->
      ignore
        (Corun.run ~policy:(Corun.Cycle_ratio [ 1; 0 ])
           [
             Corun.stream ~args:[ basea; 7 ] ~name:"a" ~mem:mema fa;
             Corun.stream ~args:[ baseb; 3 ] ~name:"b" ~mem:memb fb;
           ]))

let test_policy_of_string () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool) s true (Corun.policy_of_string s = expect))
    [
      ("rr", Some Corun.Round_robin);
      ("Round-Robin", Some Corun.Round_robin);
      ("ratio:2,1", Some (Corun.Cycle_ratio [ 2; 1 ]));
      ("ratio:4", Some (Corun.Cycle_ratio [ 4 ]));
      ("ratio:0,1", None);
      ("ratio:", None);
      ("ratio:x", None);
      ("bogus", None);
    ]

(* ---------------- allocation-free schedule ---------------- *)

(* The co-run schedule allocates per run, not per block: under the
   compiled engine, a pair of tenants at 20x the trip count allocates
   less than one minor word per hundred extra instructions. Setup (plan
   lowering, rings, a helper domain) is the same at both sizes. *)
let test_corun_schedule_allocation_free () =
  let run policy n =
    let fa =
      Branchy.kernel ~name:"a" ~n ~stride:17 ~with_prefetch:true
        ~with_store:true ()
    in
    let fb =
      Branchy.kernel ~name:"b" ~n ~stride:29 ~with_prefetch:false
        ~with_store:false ()
    in
    let mema, basea = Branchy.fresh_mem ~seed:97 () in
    let memb, baseb = Branchy.fresh_mem ~seed:41 () in
    let streams =
      [
        Corun.stream ~args:[ basea; 7 ] ~name:"a" ~mem:mema fa;
        Corun.stream ~args:[ baseb; 3 ] ~name:"b" ~mem:memb fb;
      ]
    in
    let w0 = Gc.minor_words () in
    let outs = Corun.run ~engine:Machine.Compiled ~policy streams in
    let words = Gc.minor_words () -. w0 in
    ( words,
      List.fold_left
        (fun acc so -> acc + so.Corun.so_outcome.Machine.instructions)
        0 outs )
  in
  List.iter
    (fun policy ->
      let w1, i1 = run policy 2_000 and w2, i2 = run policy 40_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f more minor words over %d more instructions"
           (Corun.policy_to_string policy)
           (w2 -. w1) (i2 - i1))
        true
        (w2 -. w1 < float_of_int (i2 - i1) /. 100.))
    [ Corun.Round_robin; Corun.Cycle_ratio [ 2; 1 ] ]

(* ---------------- property: mutated tenant pairs ---------------- *)

(* Random pairs of mutate-derived kernels interleaved under a random
   policy: per-stream outcomes must agree across both engines. *)
let prop_corun_mutated =
  QCheck.Test.make ~name:"engines agree on co-run mutated programs" ~count:20
    QCheck.(
      quad (int_range 1 300) (int_range 1 300) (int_range 0 3) small_int)
    (fun (na, nb, mutations, salt) ->
      let build name n stride pf st =
        let f = Branchy.kernel ~name ~n ~stride ~with_prefetch:pf
            ~with_store:st ()
        in
        let f = if mutations land 1 <> 0 then Mutate.pad_entry f else f in
        let f =
          if mutations land 2 <> 0 then Mutate.split_all ~min_instrs:2 f
          else f
        in
        Verify.check_exn f;
        f
      in
      let fa = build "pa" na (1 + (salt mod 31)) (salt land 1 = 0) true in
      let fb = build "pb" nb (1 + (salt mod 13)) (salt land 2 = 0) false in
      let policy =
        if salt land 4 = 0 then Corun.Round_robin
        else Corun.Cycle_ratio [ 1 + (salt land 3); 1 ]
      in
      let run engine =
        let mema, basea = Branchy.fresh_mem ~seed:(salt + 1) () in
        let memb, baseb = Branchy.fresh_mem ~seed:(salt + 2) () in
        Corun.run ~engine ~policy
          [
            Corun.stream ~args:[ basea; 7 ] ~name:"a" ~mem:mema fa;
            Corun.stream ~args:[ baseb; 3 ] ~name:"b" ~mem:memb fb;
          ]
        |> List.map (fun so -> (so.Corun.so_name, obs so.Corun.so_outcome))
      in
      match List.map run engines with
      | r0 :: rest -> List.for_all (fun r -> r = r0) rest
      | [] -> true)

(* ---------------- pin: hwpf memory-extent clamp ---------------- *)

(* Machine.execute clamps the hardware prefetcher to the allocated
   extent. A sequential walk that ends on the last allocated word must
   not issue the next-line prefetch past the region: on a memory one
   line larger the identical walk issues strictly more hardware
   prefetches. *)
let walk_kernel ~words () =
  let b = Builder.create ~name:"walk" ~nparams:1 in
  let base = List.hd (Builder.params b) in
  let step = Memory.words_per_line in
  let sum =
    Builder.for_loop_acc b ~from:(Ir.Imm 0)
      ~bound:(`Op (Ir.Imm (words / step)))
      ~init:[ Ir.Imm 0 ]
      (fun b i accs ->
        let acc = List.hd accs in
        let off = Builder.mul b i (Ir.Imm step) in
        let addr = Builder.add b base off in
        [ Builder.add b acc (Builder.load b addr) ])
  in
  Builder.ret b (Some (List.hd sum));
  let f = Builder.finish b in
  Verify.check_exn f;
  f

let hw_prefetches ~extra_words ~words =
  let mem = Memory.create () in
  let r = Memory.alloc mem ~name:"walk" ~words:(words + extra_words) in
  let f = walk_kernel ~words () in
  let o = Machine.execute ~args:[ r.Memory.base ] ~mem f in
  o.Machine.counters.Hierarchy.hw_prefetch_issued

let test_hwpf_bounds_pin () =
  let words = 64 * Memory.words_per_line in
  let clamped = hw_prefetches ~extra_words:0 ~words in
  let slack = hw_prefetches ~extra_words:Memory.words_per_line ~words in
  (* In-bounds prefetching still works... *)
  Alcotest.(check bool) "in-bounds prefetches issued" true (clamped > 0);
  (* ...but the last line's out-of-bounds targets are suppressed. The
     walk trains a line stride, so both the next-line and the stride
     prefetcher aim past the region on the final accesses. *)
  Alcotest.(check bool)
    (Printf.sprintf "clamp suppresses out-of-bounds (%d vs %d)" clamped slack)
    true (clamped < slack)

(* Unit-level pin on the prefetcher itself: a demand miss of the last
   in-bounds line emits no next-line target, one line earlier it
   does. *)
let test_hwpf_line_limit_unit () =
  let module Hwpf = Aptget_cache.Hwpf in
  let line = Memory.words_per_line in
  let h = Hwpf.create () in
  let access ~addr =
    List.init (Hwpf.on_demand_access h ~pc:3 ~addr ~miss:true) (Hwpf.target h)
  in
  Hwpf.set_line_limit h ~lines:8;
  Alcotest.(check (list int))
    "next-line inside the bound"
    [ 7 ]
    (access ~addr:(6 * line));
  Alcotest.(check (list int))
    "no next-line past the bound" []
    (access ~addr:(7 * line));
  Hwpf.set_line_limit h ~lines:0;
  Alcotest.(check (list int))
    "limit removed"
    [ 8 ]
    (access ~addr:(7 * line))

(* ---------------- pin: order-independent peak extremes ------------ *)

let test_model_unsorted_peaks () =
  (* The old code read List.nth peaks (len - 1) as the top peak and
     the head as the bottom — correct only for ascending input. *)
  let unsorted = [ 210.4; 12.5; 88.0; 7.25; 190.0 ] in
  Alcotest.(check (option (float 1e-9))) "top" (Some 210.4)
    (Model.top_peak unsorted);
  Alcotest.(check (option (float 1e-9))) "bottom" (Some 7.25)
    (Model.bottom_peak unsorted);
  (* Descending input — the worst case for the old accessor. *)
  let desc = [ 300.0; 100.0; 5.0 ] in
  Alcotest.(check (option (float 1e-9))) "top desc" (Some 300.0)
    (Model.top_peak desc);
  Alcotest.(check (option (float 1e-9))) "bottom desc" (Some 5.0)
    (Model.bottom_peak desc);
  Alcotest.(check (option (float 1e-9))) "empty" None (Model.top_peak []);
  Alcotest.(check (option (float 1e-9))) "empty" None (Model.bottom_peak [])

(* The distance must be invariant under any permutation of the
   detected peaks: Eq. 1 reads only the extremes. *)
let test_model_distance_peak_order () =
  let rng = Rng.create 7 in
  (* Bimodal iteration times: hit-ish around 12, miss-ish around 260. *)
  let times =
    Array.init 4096 (fun _ ->
        if Rng.int rng 4 = 0 then 250. +. float_of_int (Rng.int rng 20)
        else 10. +. float_of_int (Rng.int rng 5))
  in
  match Model.distance_of_times times with
  | None -> Alcotest.fail "expected a distance from bimodal times"
  | Some m ->
    Alcotest.(check bool) "positive distance" true (m.Model.distance > 0);
    let reversed = List.rev m.Model.peaks in
    Alcotest.(check (option (float 1e-9)))
      "top invariant" (Model.top_peak m.Model.peaks)
      (Model.top_peak reversed);
    Alcotest.(check (option (float 1e-9)))
      "bottom invariant"
      (Model.bottom_peak m.Model.peaks)
      (Model.bottom_peak reversed)

(* ---------------- pin: labeled builder accessor errors ------------ *)

let test_builder_labeled_errors () =
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let expect_invalid ~subs f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument msg ->
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "%S mentions %S" msg sub)
            true (contains ~sub msg))
        subs
  in
  (* Accumulator index past the end of the init list. *)
  expect_invalid
    ~subs:[ "Builder.badacc"; "accumulator"; "5"; "1" ]
    (fun () ->
      let b = Builder.create ~name:"badacc" ~nparams:0 in
      Builder.for_loop_acc b ~from:(Ir.Imm 0) ~bound:(`Acc 5)
        ~init:[ Ir.Imm 0 ]
        (fun _ _ accs -> accs));
  (* Direct accessor: negative and overflowing indices both fail with
     the builder name, the label and the index. *)
  let b = Builder.create ~name:"direct" ~nparams:2 in
  let vals = Builder.params b in
  expect_invalid ~subs:[ "Builder.direct"; "arg"; "7"; "2" ] (fun () ->
      Builder.nth_value b ~what:"arg" vals 7);
  expect_invalid ~subs:[ "Builder.direct"; "arg"; "-1" ] (fun () ->
      Builder.nth_value b ~what:"arg" vals (-1));
  Alcotest.(check bool) "in-range index still works" true
    (Builder.nth_value b ~what:"arg" vals 1 = List.nth vals 1)

(* ---------------- the co-run executor ---------------- *)

module Pipeline = Aptget_core.Pipeline
module Workload = Aptget_workloads.Workload
module Micro = Aptget_workloads.Micro
module Thrash = Aptget_workloads.Thrash
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject

let small_tenant () =
  Micro.workload
    ~params:
      { Micro.default_params with Micro.total = 8_192; table_words = 1 lsl 18; inner = 64 }
    ~name:"micro-ct" ()

let small_thrash ?(name = "thrash-ct") () =
  Thrash.workload ~params:{ Thrash.words = 1 lsl 19; passes = 1 } ~name ()

let hint_for (inst : Workload.instance) =
  {
    Aptget_pass.load_pc = Micro.delinquent_load_pc inst;
    distance = 8;
    site = Inject.Inner;
    sweep = 1;
  }

let test_executor_matches_corun () =
  (* The stage's Corun executor is Corun.run over the transformed
     tenant and a fresh co-runner: same per-stream outcomes as wiring
     the two streams by hand. *)
  let tenant = small_tenant () and corunner = small_thrash () in
  let hints = [ hint_for (tenant.Workload.build ()) ] in
  let policy = Corun.Cycle_ratio [ 1; 4 ] in
  let r =
    Pipeline.measure
      ~executor:(Pipeline.Corun { corunner; policy })
      ~transform:(Pipeline.apply_hints ~hints) tenant
  in
  let ti = tenant.Workload.build () in
  ignore (Aptget_pass.run ti.Workload.func ~hints);
  let ci = corunner.Workload.build () in
  match
    Corun.run ~policy
      [
        Corun.stream ~args:ti.Workload.args ~name:"t" ~mem:ti.Workload.mem
          ti.Workload.func;
        Corun.stream ~args:ci.Workload.args ~name:"c" ~mem:ci.Workload.mem
          ci.Workload.func;
      ]
  with
  | [ t; c ] ->
    Alcotest.(check bool) "tenant outcome" true
      (obs r.Pipeline.tenant.Pipeline.outcome = obs t.Corun.so_outcome);
    Alcotest.(check bool) "co-runner outcome" true
      (Option.map (fun m -> obs m.Pipeline.outcome) r.Pipeline.corunner
      = Some (obs c.Corun.so_outcome));
    Alcotest.(check bool) "tenant verified" true
      (r.Pipeline.tenant.Pipeline.verified = Ok ());
    Alcotest.(check bool) "injected" true
      (r.Pipeline.tenant.Pipeline.injected <> [])
  | l -> Alcotest.failf "expected two streams, got %d" (List.length l)

let test_executor_corunner_unverified () =
  (* A co-runner that fails its own check makes the tenant's run
     unverified, and the error names the co-runner. *)
  let thrash = small_thrash ~name:"thrash-broken" () in
  let corunner =
    {
      thrash with
      Workload.build =
        (fun () ->
          {
            (thrash.Workload.build ()) with
            Workload.verify = (fun _ _ -> Error "always wrong");
          });
    }
  in
  let r =
    Pipeline.measure
      ~executor:(Pipeline.Corun { corunner; policy = Corun.Round_robin })
      (small_tenant ())
  in
  (match r.Pipeline.tenant.Pipeline.verified with
  | Ok () -> Alcotest.fail "tenant must be unverified"
  | Error e ->
    Alcotest.(check string) "names the co-runner"
      "co-runner thrash-broken: always wrong" e);
  match r.Pipeline.corunner with
  | Some m ->
    Alcotest.(check bool) "co-runner unverified" true
      (m.Pipeline.verified = Error "always wrong")
  | None -> Alcotest.fail "expected a co-runner measurement"

let () =
  Alcotest.run "corun"
    [
      ( "scheduler",
        [
          Alcotest.test_case "solo matches execute" `Quick
            test_solo_matches_execute;
          Alcotest.test_case "engine parity" `Quick test_corun_engine_parity;
          Alcotest.test_case "determinism" `Quick test_corun_determinism;
          Alcotest.test_case "tenant isolation" `Quick test_corun_isolation;
          Alcotest.test_case "invalid args" `Quick test_corun_invalid_args;
          Alcotest.test_case "policy_of_string" `Quick test_policy_of_string;
          Alcotest.test_case "schedule allocation free" `Quick
            test_corun_schedule_allocation_free;
          QCheck_alcotest.to_alcotest prop_corun_mutated;
        ] );
      ( "pins",
        [
          Alcotest.test_case "hwpf bounds clamp (machine)" `Quick
            test_hwpf_bounds_pin;
          Alcotest.test_case "hwpf line limit (unit)" `Quick
            test_hwpf_line_limit_unit;
          Alcotest.test_case "model unsorted peaks" `Quick
            test_model_unsorted_peaks;
          Alcotest.test_case "model distance peak order" `Quick
            test_model_distance_peak_order;
          Alcotest.test_case "builder labeled errors" `Quick
            test_builder_labeled_errors;
        ] );
      ( "executor",
        [
          Alcotest.test_case "matches Corun.run" `Quick
            test_executor_matches_corun;
          Alcotest.test_case "co-runner unverified" `Quick
            test_executor_corunner_unverified;
        ] );
    ]
