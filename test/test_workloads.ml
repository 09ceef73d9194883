(* Every workload builds well-formed IR, runs on the simulator, and
   passes its own semantic verifier on small instances. *)

module Machine = Aptget_machine.Machine
module Workload = Aptget_workloads.Workload
module Graph_kernels = Aptget_workloads.Graph_kernels
module Micro = Aptget_workloads.Micro
module Is = Aptget_workloads.Is
module Cg = Aptget_workloads.Cg
module Randacc = Aptget_workloads.Randacc
module Hashjoin = Aptget_workloads.Hashjoin
module Btree = Aptget_workloads.Btree
module Phased = Aptget_workloads.Phased
module Thrash = Aptget_workloads.Thrash
module Suite = Aptget_workloads.Suite
module Generate = Aptget_graph.Generate
module Csr = Aptget_graph.Csr
module Aj = Aptget_passes.Aj
module Memory = Aptget_mem.Memory

let run_and_verify (inst : Workload.instance) =
  Verify.check_exn inst.Workload.func;
  let out =
    Machine.execute ~args:inst.Workload.args ~mem:inst.Workload.mem
      inst.Workload.func
  in
  (match inst.Workload.verify inst.Workload.mem out.Machine.ret with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  out

let small_graph ?(seed = 9) () = Generate.uniform ~seed ~n:2000 ~degree:6
let small_sym ?(seed = 9) () = Csr.symmetrize (Generate.uniform ~seed ~n:2000 ~degree:3)

let test_bfs () =
  let out = run_and_verify (Graph_kernels.bfs (small_sym ())) in
  Alcotest.(check bool) "visited most vertices" true
    (match out.Machine.ret with Some v -> v > 1000 | None -> false)

let test_bfs_isolated_source () =
  (* a graph where vertex 0 has no edges: BFS visits only the source *)
  let g = Csr.of_edges ~n:4 [| (1, 2); (2, 3) |] in
  let out = run_and_verify (Graph_kernels.bfs ~source:0 g) in
  Alcotest.(check (option int)) "only source" (Some 1) out.Machine.ret

let test_bfs_chain_distances () =
  let g = Csr.of_edges ~n:5 [| (0, 1); (1, 2); (2, 3); (3, 4) |] in
  let inst = Graph_kernels.bfs g in
  ignore (run_and_verify inst)
  (* the verifier itself compares distances against the host mirror *)

let test_dfs () =
  let out = run_and_verify (Graph_kernels.dfs (small_sym ())) in
  Alcotest.(check bool) "visited most vertices" true
    (match out.Machine.ret with Some v -> v > 1000 | None -> false)

let test_pagerank () =
  ignore (run_and_verify (Graph_kernels.pagerank ~iters:2 (small_graph ())))

let test_sssp () =
  let g = Generate.random_weights ~seed:4 (small_graph ()) in
  ignore (run_and_verify (Graph_kernels.sssp ~rounds:2 g))

let test_bc () =
  ignore (run_and_verify (Graph_kernels.bc ~max_rounds:8 (small_sym ())))

let test_micro_checksum () =
  let p = { Micro.default_params with Micro.total = 4096; table_words = 65_536 } in
  let out = run_and_verify (Micro.build p) in
  Alcotest.(check (option int)) "checksum" (Some (Micro.accumulate_expected p))
    out.Machine.ret

let test_micro_rejects_bad_params () =
  Alcotest.(check bool) "indivisible" true
    (try
       ignore (Micro.build { Micro.default_params with Micro.total = 100; inner = 7 });
       false
     with Invalid_argument _ -> true)

let test_micro_has_indirect_load () =
  let p = { Micro.default_params with Micro.total = 4096; table_words = 65_536 } in
  let inst = Micro.build p in
  Alcotest.(check bool) "delinquent pc found" true
    (Micro.delinquent_load_pc inst > 0)

let test_is () =
  let p = { Is.n_keys = 8192; key_range = 16_384; iterations = 2; seed = 1 } in
  ignore (run_and_verify (Is.build p))

let test_cg () =
  let p = { Cg.rows = 4096; nnz_per_row = 4; iterations = 2; seed = 2 } in
  ignore (run_and_verify (Cg.build p))

let test_randacc () =
  let p = { Randacc.table_words = 1 lsl 14; updates = 8192; seed = 3 } in
  ignore (run_and_verify (Randacc.build p))

(* The oracle checks every [table_words / 997]th entry of T only, so it
   is built from the updates to those entries alone; it must still
   catch a wrong value there. *)
let test_randacc_verify_catches_corruption () =
  let p = { Randacc.table_words = 1 lsl 14; updates = 8192; seed = 3 } in
  let inst = Randacc.build p in
  let out = run_and_verify inst in
  let mem = inst.Workload.mem in
  let t =
    List.find (fun r -> r.Memory.name = "T") (Memory.regions mem)
  in
  let stride = p.Randacc.table_words / 997 in
  let verdict () = inst.Workload.verify mem out.Machine.ret in
  let flip i =
    let a = t.Memory.base + i in
    Memory.set mem a (Memory.get mem a lxor 1)
  in
  flip ((5 * stride) + 1);
  Alcotest.(check bool) "unchecked entry not read" true (verdict () = Ok ());
  flip (5 * stride);
  Alcotest.(check bool) "checked entry caught" true (Result.is_error (verdict ()))

let test_randacc_requires_pow2 () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Randacc.build { Randacc.table_words = 1000; updates = 10; seed = 1 });
       false
     with Invalid_argument _ -> true)

let test_hashjoin_both_variants () =
  List.iter
    (fun base ->
      List.iter
        (fun algo ->
          let p =
            { base with Hashjoin.n_build = 4096; n_probe = 2048;
              n_buckets = 1 lsl 11; algo }
          in
          let out = run_and_verify (Hashjoin.build p) in
          Alcotest.(check bool) "found matches" true
            (match out.Machine.ret with Some v -> v > 0 | None -> false))
        [ Hashjoin.Npo; Hashjoin.Npo_st ])
    [ Hashjoin.hj2_params; Hashjoin.hj8_params ]

let test_is_classes_distinct () =
  Alcotest.(check bool) "class C is bigger" true
    (Is.class_c.Is.n_keys > Is.class_b.Is.n_keys
    && Is.class_c.Is.key_range > Is.class_b.Is.key_range)

let test_all_kernels_have_indirect_candidates () =
  (* The pass must find something to do in every suite application. *)
  let checks =
    [
      ("bfs", (Graph_kernels.bfs (small_sym ())).Workload.func);
      ("is", (Is.build { Is.n_keys = 1024; key_range = 4096; iterations = 1; seed = 1 }).Workload.func);
      ( "hj",
        (Hashjoin.build
           { Hashjoin.hj2_params with Hashjoin.n_build = 512; n_probe = 256; n_buckets = 256 }).Workload.func );
      ( "randacc",
        (Randacc.build { Randacc.table_words = 1024; updates = 128; seed = 1 }).Workload.func );
    ]
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " has candidates") true
        (Aj.candidate_loads f <> []))
    checks

let test_suite_registry () =
  Alcotest.(check int) "fifteen entries" 15 (List.length Suite.default);
  Alcotest.(check bool) "nested subset" true
    (List.length Suite.nested < List.length Suite.default);
  (match Suite.find "hj8-npo" with
  | Some w -> Alcotest.(check string) "case-insensitive" "HJ8-NPO" w.Workload.name
  | None -> Alcotest.fail "HJ8-NPO not found");
  Alcotest.(check int) "train/test pairs" 5 (List.length Suite.train_test)

let test_workload_rebuild_deterministic () =
  let w = Suite.micro ~inner:16 ~complexity:0 in
  let i1 = w.Workload.build () in
  let i2 = w.Workload.build () in
  let o1 = Machine.execute ~args:i1.Workload.args ~mem:i1.Workload.mem i1.Workload.func in
  let o2 = Machine.execute ~args:i2.Workload.args ~mem:i2.Workload.mem i2.Workload.func in
  Alcotest.(check bool) "identical runs" true
    (o1.Machine.cycles = o2.Machine.cycles && o1.Machine.ret = o2.Machine.ret)

(* ---------------- the build memo ---------------- *)

(* Everything a run can observe of an instance: the program, every
   region's name, place and words, the arguments, and what an
   unhinted run returns and its verifier says. *)
let observe (inst : Workload.instance) =
  let program =
    Fingerprint.hex (Fingerprint.fingerprint inst.Workload.func).Fingerprint.program
  in
  let regions =
    List.map
      (fun r -> (r, Memory.read_array inst.Workload.mem r))
      (Memory.regions inst.Workload.mem)
  in
  let out =
    Machine.execute ~args:inst.Workload.args ~mem:inst.Workload.mem
      (Ir.copy_func inst.Workload.func)
  in
  ( program,
    regions,
    inst.Workload.args,
    out.Machine.ret,
    inst.Workload.verify inst.Workload.mem out.Machine.ret )

let check_same what a b =
  let pa, ra, aa, reta, va = observe a and pb, rb, ab, retb, vb = observe b in
  Alcotest.(check string) (what ^ ": program") pa pb;
  Alcotest.(check bool) (what ^ ": regions and words") true (ra = rb);
  Alcotest.(check (list int)) (what ^ ": args") aa ab;
  Alcotest.(check (option int)) (what ^ ": return value") reta retb;
  Alcotest.(check bool) (what ^ ": verify verdict") true (va = vb && va = Ok ())

let hj_small algo =
  { Hashjoin.hj2_params with Hashjoin.n_build = 4096; n_probe = 2048;
    n_buckets = 1 lsl 11; algo }

let phased_small =
  {
    Phased.default_params with
    Phased.table_words = 1 lsl 14;
    hot_words = 1024;
    phases = [ (Phased.Cold, 1024); (Phased.Hot, 2048); (Phased.Cold, 512) ];
  }

let micro_small = { Micro.default_params with Micro.total = 4096; table_words = 65_536 }

(* Store-free kernels: (name, record, raw recipe). *)
let store_free () =
  let btree = { Btree.levels = 2; queries = 512; seed = 11 } in
  let thrash = { Thrash.words = 4096; passes = 2 } in
  [
    ("btree", Btree.workload ~params:btree ~name:"btree" (), fun () -> Btree.build btree);
    ( "HJ-NPO",
      Hashjoin.workload ~params:(hj_small Hashjoin.Npo) ~name:"hj" (),
      fun () -> Hashjoin.build (hj_small Hashjoin.Npo) );
    ( "HJ-NPO_st",
      Hashjoin.workload ~params:(hj_small Hashjoin.Npo_st) ~name:"hj-st" (),
      fun () -> Hashjoin.build (hj_small Hashjoin.Npo_st) );
    ( "phased",
      Phased.workload ~params:phased_small ~name:"phased" (),
      fun () -> Phased.build phased_small );
    ("thrash", Thrash.workload ~params:thrash ~name:"thrash" (), fun () -> Thrash.build thrash);
    ("micro", Micro.workload ~params:micro_small ~name:"micro" (), fun () -> Micro.build micro_small);
  ]

(* A run with prefetches injected into the instance's own IR, then a
   write over every word of its memory, must leave nothing behind for
   the next build: it equals a raw build in every observable. *)
let test_memo_rebuild_is_cold () =
  List.iter
    (fun (name, (w : Workload.t), raw) ->
      let used = w.Workload.build () in
      ignore (Aj.run used.Workload.func);
      ignore
        (Machine.execute ~args:used.Workload.args ~mem:used.Workload.mem
           used.Workload.func);
      List.iter
        (fun r -> Memory.init_region used.Workload.mem r (fun i -> -1 - i))
        (Memory.regions used.Workload.mem);
      check_same name (w.Workload.build ()) (raw ()))
    (store_free ())

let counted recipe =
  let calls = Atomic.make 0 in
  let w =
    Workload.make ~name:"counted" ~app:"counted" ~input:"" ~description:""
      ~nested:false (fun () ->
        Atomic.incr calls;
        recipe ())
  in
  (w, calls)

let test_memo_store_free_builds_once () =
  let w, calls = counted (fun () -> Micro.build micro_small) in
  for _ = 1 to 3 do
    ignore (w.Workload.build ())
  done;
  Alcotest.(check int) "one recipe call" 1 (Atomic.get calls)

let test_memo_storing_kernel_rebuilds () =
  let w, calls =
    counted (fun () ->
        Randacc.build { Randacc.table_words = 1 lsl 12; updates = 1024; seed = 3 })
  in
  for _ = 1 to 3 do
    ignore (w.Workload.build ())
  done;
  Alcotest.(check int) "a recipe call per build" 3 (Atomic.get calls)

let test_memo_concurrent_first_build () =
  let w, calls = counted (fun () -> Micro.build micro_small) in
  let d1 = Domain.spawn w.Workload.build in
  let d2 = Domain.spawn w.Workload.build in
  let a = Domain.join d1 and b = Domain.join d2 in
  Alcotest.(check int) "one recipe call" 1 (Atomic.get calls);
  Alcotest.(check bool) "distinct handles" true
    (a.Workload.mem != b.Workload.mem && a.Workload.func != b.Workload.func);
  check_same "concurrent" a b

(* Segment views narrow one shared image to their window: each passes
   its own verifier, and their checksums add up to the fused run's. *)
let test_phased_segments_sum_to_fused () =
  let run (w : Workload.t) =
    let out = run_and_verify (w.Workload.build ()) in
    Option.get out.Machine.ret
  in
  let fused = run (Phased.workload ~params:phased_small ~name:"phased" ()) in
  let segs = Phased.segments ~params:phased_small ~name:"phased" () in
  Alcotest.(check int) "one segment per phase" 3 (List.length segs);
  Alcotest.(check int) "segments sum to the fused checksum" fused
    (List.fold_left (fun acc (_, w) -> acc + run w) 0 segs)

let () =
  Alcotest.run "workloads"
    [
      ( "graph kernels",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "bfs isolated source" `Quick test_bfs_isolated_source;
          Alcotest.test_case "bfs chain" `Quick test_bfs_chain_distances;
          Alcotest.test_case "dfs" `Quick test_dfs;
          Alcotest.test_case "pagerank" `Quick test_pagerank;
          Alcotest.test_case "sssp" `Quick test_sssp;
          Alcotest.test_case "bc" `Quick test_bc;
        ] );
      ( "micro",
        [
          Alcotest.test_case "checksum" `Quick test_micro_checksum;
          Alcotest.test_case "bad params" `Quick test_micro_rejects_bad_params;
          Alcotest.test_case "indirect load" `Quick test_micro_has_indirect_load;
        ] );
      ( "other apps",
        [
          Alcotest.test_case "is" `Quick test_is;
          Alcotest.test_case "cg" `Quick test_cg;
          Alcotest.test_case "randacc" `Quick test_randacc;
          Alcotest.test_case "randacc pow2" `Quick test_randacc_requires_pow2;
          Alcotest.test_case "randacc verify catches corruption" `Quick
            test_randacc_verify_catches_corruption;
          Alcotest.test_case "hashjoin" `Quick test_hashjoin_both_variants;
          Alcotest.test_case "IS classes" `Quick test_is_classes_distinct;
        ] );
      ( "suite",
        [
          Alcotest.test_case "candidates everywhere" `Quick
            test_all_kernels_have_indirect_candidates;
          Alcotest.test_case "registry" `Quick test_suite_registry;
          Alcotest.test_case "deterministic rebuild" `Quick
            test_workload_rebuild_deterministic;
        ] );
      ( "build memo",
        [
          Alcotest.test_case "rebuild after a hinted run is cold" `Quick
            test_memo_rebuild_is_cold;
          Alcotest.test_case "store-free recipe runs once" `Quick
            test_memo_store_free_builds_once;
          Alcotest.test_case "storing recipe runs every build" `Quick
            test_memo_storing_kernel_rebuilds;
          Alcotest.test_case "concurrent first builds agree" `Quick
            test_memo_concurrent_first_build;
          Alcotest.test_case "phased segments sum to the fused run" `Quick
            test_phased_segments_sum_to_fused;
        ] );
    ]
