(* The timing interpreter: functional correctness of every opcode,
   control flow, and the cost model's key properties. *)

module Machine = Aptget_machine.Machine
module Memory = Aptget_mem.Memory
module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler
module Lbr = Aptget_pmu.Lbr

let run_expr build =
  let b = Builder.create ~name:"expr" ~nparams:2 in
  let x, y =
    match Builder.params b with [ x; y ] -> (x, y) | _ -> assert false
  in
  let r = build b x y in
  Builder.ret b (Some r);
  let f = Builder.finish b in
  Verify.check_exn f;
  fun vx vy ->
    let mem = Memory.create () in
    ignore (Memory.alloc mem ~name:"scratch" ~words:64);
    (Machine.execute ~args:[ vx; vy ] ~mem f).Machine.ret

let test_binops () =
  let cases =
    [
      (Ir.Add, 7, 3, 10); (Ir.Sub, 7, 3, 4); (Ir.Mul, 7, 3, 21);
      (Ir.Div, 7, 3, 2); (Ir.Rem, 7, 3, 1); (Ir.And, 6, 3, 2);
      (Ir.Or, 6, 3, 7); (Ir.Xor, 6, 3, 5); (Ir.Shl, 3, 2, 12);
      (Ir.Shr, 12, 2, 3);
    ]
  in
  List.iter
    (fun (op, a, bv, expected) ->
      let f = run_expr (fun b x y -> Builder.binop b op x y) in
      Alcotest.(check (option int)) "binop" (Some expected) (f a bv))
    cases

let test_div_by_zero_is_zero () =
  let f = run_expr (fun b x y -> Builder.div b x y) in
  Alcotest.(check (option int)) "x/0 = 0" (Some 0) (f 5 0);
  let g = run_expr (fun b x y -> Builder.rem b x y) in
  Alcotest.(check (option int)) "x mod 0 = 0" (Some 0) (g 5 0)

let test_cmp_select () =
  let f =
    run_expr (fun b x y ->
        let c = Builder.cmp b Ir.Lt x y in
        Builder.select b c (Ir.Imm 100) (Ir.Imm 200))
  in
  Alcotest.(check (option int)) "lt true" (Some 100) (f 1 2);
  Alcotest.(check (option int)) "lt false" (Some 200) (f 2 1)

let test_negative_numbers () =
  let f = run_expr (fun b x y -> Builder.add b x y) in
  Alcotest.(check (option int)) "negative add" (Some (-5)) (f (-10) 5);
  let g = run_expr (fun b x y -> Builder.shr b x y) in
  Alcotest.(check (option int)) "arithmetic shift" (Some (-2)) (g (-8) 2)

let test_load_store () =
  let b = Builder.create ~name:"ls" ~nparams:1 in
  let base = List.hd (Builder.params b) in
  Builder.store b ~addr:base ~value:(Ir.Imm 41);
  let v = Builder.load b base in
  let v1 = Builder.add b v (Ir.Imm 1) in
  Builder.store b ~addr:(Builder.add b base (Ir.Imm 1)) ~value:v1;
  Builder.ret b (Some v1);
  let f = Builder.finish b in
  let mem = Memory.create () in
  let r = Memory.alloc mem ~name:"r" ~words:8 in
  let out = Machine.execute ~args:[ r.Memory.base ] ~mem f in
  Alcotest.(check (option int)) "ret" (Some 42) out.Machine.ret;
  Alcotest.(check int) "stored" 42 (Memory.get mem (r.Memory.base + 1))

let test_loop_sum () =
  let b = Builder.create ~name:"sum" ~nparams:1 in
  let n = List.hd (Builder.params b) in
  let final =
    Builder.for_loop_acc b ~from:(Ir.Imm 0) ~bound:(`Op n) ~init:[ Ir.Imm 0 ]
      (fun b i accs -> [ Builder.add b (List.hd accs) i ])
  in
  Builder.ret b (Some (List.hd final));
  let f = Builder.finish b in
  let mem = Memory.create () in
  ignore (Memory.alloc mem ~name:"pad" ~words:8);
  let out = Machine.execute ~args:[ 100 ] ~mem f in
  Alcotest.(check (option int)) "gauss" (Some 4950) out.Machine.ret

let test_zero_trip_loop () =
  let b = Builder.create ~name:"z" ~nparams:1 in
  let n = List.hd (Builder.params b) in
  let final =
    Builder.for_loop_acc b ~from:(Ir.Imm 0) ~bound:(`Op n) ~init:[ Ir.Imm 7 ]
      (fun b _ accs -> [ Builder.add b (List.hd accs) (Ir.Imm 1) ])
  in
  Builder.ret b (Some (List.hd final));
  let f = Builder.finish b in
  let mem = Memory.create () in
  ignore (Memory.alloc mem ~name:"pad" ~words:8);
  let out = Machine.execute ~args:[ 0 ] ~mem f in
  Alcotest.(check (option int)) "init value" (Some 7) out.Machine.ret

let test_work_costs_cycles () =
  let make amount =
    let b = Builder.create ~name:"w" ~nparams:0 in
    Builder.work b (Ir.Imm amount);
    Builder.ret b None;
    Builder.finish b
  in
  let mem = Memory.create () in
  ignore (Memory.alloc mem ~name:"pad" ~words:8);
  let o1 = Machine.execute ~mem (make 10) in
  let o2 = Machine.execute ~mem (make 110) in
  Alcotest.(check int) "work adds cycles" 100 (o2.Machine.cycles - o1.Machine.cycles);
  Alcotest.(check int) "work adds instructions" 100
    (o2.Machine.instructions - o1.Machine.instructions)

let test_cold_load_slower_than_warm () =
  let make () =
    let b = Builder.create ~name:"l" ~nparams:1 in
    let base = List.hd (Builder.params b) in
    let v = Builder.load b base in
    Builder.ret b (Some v);
    Builder.finish b
  in
  let mem = Memory.create () in
  let r = Memory.alloc mem ~name:"r" ~words:8 in
  let h = Hierarchy.create Hierarchy.default_config in
  let cold = Machine.execute ~hierarchy:h ~args:[ r.Memory.base ] ~mem (make ()) in
  let warm = Machine.execute ~hierarchy:h ~args:[ r.Memory.base ] ~mem (make ()) in
  Alcotest.(check bool) "cold slower" true (cold.Machine.cycles > warm.Machine.cycles + 100)

let test_prefetch_nonblocking () =
  (* A prefetch followed by enough work makes the subsequent load cheap. *)
  let make prefetch_first =
    let b = Builder.create ~name:"pf" ~nparams:1 in
    let base = List.hd (Builder.params b) in
    if prefetch_first then Builder.prefetch b base;
    Builder.work b (Ir.Imm 400);
    let v = Builder.load b base in
    Builder.ret b (Some v);
    Builder.finish b
  in
  let run f =
    let mem = Memory.create () in
    let r = Memory.alloc mem ~name:"r" ~words:8 in
    (Machine.execute ~args:[ r.Memory.base ] ~mem f).Machine.cycles
  in
  let without = run (make false) in
  let with_pf = run (make true) in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch hides latency (%d vs %d)" with_pf without)
    true
    (with_pf + 200 < without)

let test_dyn_counters () =
  let b = Builder.create ~name:"c" ~nparams:1 in
  let base = List.hd (Builder.params b) in
  Builder.prefetch b base;
  let v = Builder.load b base in
  ignore (Builder.load b (Builder.add b base (Ir.Imm 1)));
  Builder.ret b (Some v);
  let f = Builder.finish b in
  let mem = Memory.create () in
  let r = Memory.alloc mem ~name:"r" ~words:8 in
  let out = Machine.execute ~args:[ r.Memory.base ] ~mem f in
  Alcotest.(check int) "loads" 2 out.Machine.dyn_loads;
  Alcotest.(check int) "prefetches" 1 out.Machine.dyn_prefetches

let test_lbr_records_branches () =
  let b = Builder.create ~name:"loop" ~nparams:0 in
  Builder.for_loop b ~from:(Ir.Imm 0) ~bound:(Ir.Imm 10) (fun b _ ->
      Builder.work b (Ir.Imm 1));
  Builder.ret b None;
  let f = Builder.finish b in
  let mem = Memory.create () in
  ignore (Memory.alloc mem ~name:"pad" ~words:8);
  let sampler = Sampler.create ~lbr_period:1_000_000 () in
  ignore (Machine.execute ~sampler ~mem f);
  let ring = Sampler.lbr sampler in
  let n = Lbr.length ring in
  Alcotest.(check bool) "branches recorded" true (n > 10);
  (* the loop's back edge PC appears repeatedly with increasing cycles *)
  let backedge = Lbr.branch_pc ring (n - 3) in
  let occurrences =
    List.length
      (List.filter (fun i -> Lbr.branch_pc ring i = backedge) (List.init n Fun.id))
  in
  Alcotest.(check bool) "repeated back edge" true (occurrences >= 2)

let test_phi_parallel_swap () =
  (* Two phis that swap each other's values: parallel evaluation is
     required (sequential assignment would duplicate one value). *)
  let b = Builder.create ~name:"swap" ~nparams:1 in
  let n = List.hd (Builder.params b) in
  let entry = Builder.current b in
  let header = Builder.new_block b in
  let body = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.jmp b header;
  Builder.switch_to b header;
  let i = Builder.phi b [ (entry, Ir.Imm 0) ] in
  let x = Builder.phi b [ (entry, Ir.Imm 1) ] in
  let y = Builder.phi b [ (entry, Ir.Imm 2) ] in
  let c = Builder.cmp b Ir.Lt i n in
  Builder.br b c body exit;
  Builder.switch_to b body;
  let i' = Builder.add b i (Ir.Imm 1) in
  Builder.jmp b header;
  Builder.add_incoming b ~block:header ~phi:i (body, i');
  Builder.add_incoming b ~block:header ~phi:x (body, y);
  Builder.add_incoming b ~block:header ~phi:y (body, x);
  Builder.switch_to b exit;
  let hundred_x = Builder.mul b x (Ir.Imm 100) in
  let r = Builder.add b hundred_x y in
  Builder.ret b (Some r);
  let f = Builder.finish b in
  Verify.check_exn f;
  let run n =
    let mem = Memory.create () in
    ignore (Memory.alloc mem ~name:"pad" ~words:8);
    (Machine.execute ~args:[ n ] ~mem f).Machine.ret
  in
  Alcotest.(check (option int)) "odd swaps" (Some 201) (run 1);
  Alcotest.(check (option int)) "even swaps" (Some 102) (run 2)

let test_fuse () =
  let b = Builder.create ~name:"inf" ~nparams:0 in
  let entry = Builder.current b in
  let header = Builder.new_block b in
  Builder.jmp b header;
  Builder.switch_to b header;
  ignore entry;
  ignore (Builder.add b (Ir.Imm 1) (Ir.Imm 1));
  Builder.jmp b header;
  let f = Builder.finish b in
  let mem = Memory.create () in
  ignore (Memory.alloc mem ~name:"pad" ~words:8);
  let config =
    { Machine.default_config with Machine.max_instructions = 10_000 }
  in
  Alcotest.(check bool) "fuse blows" true
    (try
       ignore (Machine.execute ~config ~mem f);
       false
     with Machine.Fuse_blown _ -> true)

(* ---------------- stall-on-use core ---------------- *)

let gather_f () =
  let b = Builder.create ~name:"g" ~nparams:3 in
  let b_base, t_base, n =
    match Builder.params b with [ x; y; z ] -> (x, y, z) | _ -> assert false
  in
  let final =
    Builder.for_loop_acc b ~from:(Ir.Imm 0) ~bound:(`Op n) ~init:[ Ir.Imm 0 ]
      (fun b i accs ->
        let idx = Builder.load b (Builder.add b b_base i) in
        let v = Builder.load b (Builder.add b t_base idx) in
        [ Builder.add b (List.hd accs) v ])
  in
  Builder.ret b (Some (List.hd final));
  Builder.finish b

let gather_mem () =
  let mem = Memory.create () in
  let bs = Memory.alloc mem ~name:"B" ~words:1024 in
  let ts = Memory.alloc mem ~name:"T" ~words:32768 in
  let rng = Aptget_util.Rng.create 3 in
  Memory.blit_array mem bs
    (Array.init 1024 (fun _ -> Aptget_util.Rng.int rng 32768));
  Memory.blit_array mem ts (Array.init 32768 (fun i -> i));
  (mem, [ bs.Memory.base; ts.Memory.base; 1024 ])

let test_stall_on_use_same_semantics () =
  let f = gather_f () in
  let mem1, args = gather_mem () in
  let o1 = Machine.execute ~args ~mem:mem1 f in
  let mem2, args2 = gather_mem () in
  let o2 =
    Machine.execute ~config:(Machine.stall_on_use_config ()) ~args:args2
      ~mem:mem2 f
  in
  Alcotest.(check bool) "same result" true (o1.Machine.ret = o2.Machine.ret);
  Alcotest.(check int) "same instruction count" o1.Machine.instructions
    o2.Machine.instructions

let test_stall_on_use_overlaps_independent_misses () =
  let f = gather_f () in
  let mem1, args = gather_mem () in
  let blocking = Machine.execute ~args ~mem:mem1 f in
  let mem2, args2 = gather_mem () in
  let overlap =
    Machine.execute ~config:(Machine.stall_on_use_config ()) ~args:args2
      ~mem:mem2 f
  in
  Alcotest.(check bool)
    (Printf.sprintf "independent misses overlap (%d vs %d cycles)"
       overlap.Machine.cycles blocking.Machine.cycles)
    true
    (overlap.Machine.cycles * 2 < blocking.Machine.cycles)

let chase_f () =
  (* p = T[p] pointer chase: every load depends on the previous one. *)
  let b = Builder.create ~name:"chase" ~nparams:2 in
  let t_base, n =
    match Builder.params b with [ x; y ] -> (x, y) | _ -> assert false
  in
  let final =
    Builder.for_loop_acc b ~from:(Ir.Imm 0) ~bound:(`Op n) ~init:[ Ir.Imm 0 ]
      (fun b _ accs ->
        let p = List.hd accs in
        [ Builder.load b (Builder.add b t_base p) ])
  in
  Builder.ret b (Some (List.hd final));
  Builder.finish b

let test_stall_on_use_serialises_dependent_chain () =
  let mem () =
    let m = Memory.create () in
    let ts = Memory.alloc m ~name:"T" ~words:65536 in
    (* a permutation cycle with large strides to defeat caching *)
    Memory.blit_array m ts
      (Array.init 65536 (fun i -> (i + 9973) mod 65536));
    (m, [ ts.Memory.base; 512 ])
  in
  let f = chase_f () in
  let m1, a1 = mem () in
  let blocking = Machine.execute ~args:a1 ~mem:m1 f in
  let m2, a2 = mem () in
  let sou =
    Machine.execute ~config:(Machine.stall_on_use_config ()) ~args:a2 ~mem:m2 f
  in
  Alcotest.(check bool)
    (Printf.sprintf "chain cannot overlap (%d vs %d)" sou.Machine.cycles
       blocking.Machine.cycles)
    true
    (sou.Machine.cycles * 10 > blocking.Machine.cycles * 9)

let test_stall_on_use_window_bounds_overlap () =
  let f = gather_f () in
  let run window =
    let mem, args = gather_mem () in
    (Machine.execute
       ~config:(Machine.stall_on_use_config ~window ())
       ~args ~mem f)
      .Machine.cycles
  in
  let narrow = run 2 in
  let wide = run 128 in
  Alcotest.(check bool)
    (Printf.sprintf "wider window is faster (%d vs %d)" wide narrow)
    true (wide < narrow)

let test_metrics () =
  let o =
    {
      Machine.cycles = 1000;
      instructions = 500;
      dyn_loads = 10;
      dyn_prefetches = 0;
      ret = None;
      counters =
        {
          (Hierarchy.counters (Hierarchy.create Hierarchy.default_config)) with
          Hierarchy.offcore_demand_data_rd = 25;
          stall_cycles_llc = 100;
          stall_cycles_dram = 300;
        };
    }
  in
  Alcotest.(check (float 1e-9)) "ipc" 0.5 (Machine.ipc o);
  Alcotest.(check (float 1e-9)) "mpki" 50. (Machine.mpki o);
  Alcotest.(check (float 1e-9)) "stall" 0.4 (Machine.memory_stall_fraction o)

let prop_random_arith_matches_host =
  (* Random expression trees over two variables evaluate identically in
     the interpreter and in OCaml. *)
  let module E = struct
    type e = Var0 | Var1 | Const of int | Bin of Ir.binop * e * e

    let rec gen depth st =
      if depth = 0 then
        match Random.State.int st 3 with
        | 0 -> Var0
        | 1 -> Var1
        | _ -> Const (Random.State.int st 100 - 50)
      else begin
        match Random.State.int st 5 with
        | 0 -> Var0
        | 1 -> Var1
        | 2 -> Const (Random.State.int st 100 - 50)
        | _ ->
          let op =
            match Random.State.int st 8 with
            | 0 -> Ir.Add
            | 1 -> Ir.Sub
            | 2 -> Ir.Mul
            | 3 -> Ir.Div
            | 4 -> Ir.Rem
            | 5 -> Ir.And
            | 6 -> Ir.Or
            | _ -> Ir.Xor
          in
          Bin (op, gen (depth - 1) st, gen (depth - 1) st)
      end

    let rec eval e x y =
      match e with
      | Var0 -> x
      | Var1 -> y
      | Const c -> c
      | Bin (op, a, b) ->
        let a = eval a x y and b = eval b x y in
        (match op with
        | Ir.Add -> a + b
        | Ir.Sub -> a - b
        | Ir.Mul -> a * b
        | Ir.Div -> if b = 0 then 0 else a / b
        | Ir.Rem -> if b = 0 then 0 else a mod b
        | Ir.And -> a land b
        | Ir.Or -> a lor b
        | Ir.Xor -> a lxor b
        | Ir.Shl -> a lsl (b land 62)
        | Ir.Shr -> a asr (b land 62))

    let rec emit bld x y e =
      match e with
      | Var0 -> x
      | Var1 -> y
      | Const c -> Ir.Imm c
      | Bin (op, a, b) ->
        let a = emit bld x y a in
        let b = emit bld x y b in
        Builder.binop bld op a b
  end in
  QCheck.Test.make ~name:"random arithmetic matches host" ~count:100
    QCheck.(triple (int_bound 10_000) (int_range (-100) 100) (int_range (-100) 100))
    (fun (seed, vx, vy) ->
      let st = Random.State.make [| seed |] in
      let e = E.gen 4 st in
      let f = run_expr (fun b x y -> E.emit b x y e) in
      f vx vy = Some (E.eval e vx vy))

let () =
  Alcotest.run "machine"
    [
      ( "semantics",
        [
          Alcotest.test_case "binops" `Quick test_binops;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_is_zero;
          Alcotest.test_case "cmp/select" `Quick test_cmp_select;
          Alcotest.test_case "negatives" `Quick test_negative_numbers;
          Alcotest.test_case "load/store" `Quick test_load_store;
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "zero-trip loop" `Quick test_zero_trip_loop;
        ] );
      ( "timing",
        [
          Alcotest.test_case "work cycles" `Quick test_work_costs_cycles;
          Alcotest.test_case "cold vs warm" `Quick test_cold_load_slower_than_warm;
          Alcotest.test_case "prefetch non-blocking" `Quick test_prefetch_nonblocking;
          Alcotest.test_case "dyn counters" `Quick test_dyn_counters;
          Alcotest.test_case "lbr records" `Quick test_lbr_records_branches;
          Alcotest.test_case "phi parallel swap" `Quick test_phi_parallel_swap;
          Alcotest.test_case "fuse" `Quick test_fuse;
          Alcotest.test_case "metrics" `Quick test_metrics;
        ] );
      ( "stall-on-use",
        [
          Alcotest.test_case "same semantics" `Quick test_stall_on_use_same_semantics;
          Alcotest.test_case "overlaps independent misses" `Quick
            test_stall_on_use_overlaps_independent_misses;
          Alcotest.test_case "serialises chains" `Quick
            test_stall_on_use_serialises_dependent_chain;
          Alcotest.test_case "window bounds overlap" `Quick
            test_stall_on_use_window_bounds_overlap;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_arith_matches_host ] );
    ]
