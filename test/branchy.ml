(* Shared by the engine and co-run differential suites. *)

module Memory = Aptget_mem.Memory

(* A branchy gather loop: every iteration loads from a seed-scrambled
   index, then takes a data-dependent branch whose arms merge through a
   phi. Exercises phi moves, ALU batching, loads, prefetches and
   stores. *)
let kernel ?(name = "diff") ~n ~stride ~with_prefetch ~with_store () =
  let b = Builder.create ~name ~nparams:2 in
  let base, seed =
    match Builder.params b with [ x; y ] -> (x, y) | _ -> assert false
  in
  let final =
    Builder.for_loop_acc b ~from:(Ir.Imm 0) ~bound:(`Op (Ir.Imm n))
      ~init:[ Ir.Imm 0; Ir.Imm 1 ]
      (fun b i accs ->
        let acc, salt =
          match accs with [ a; s ] -> (a, s) | _ -> assert false
        in
        let x = Builder.mul b i (Ir.Imm stride) in
        let x = Builder.add b x seed in
        let idx = Builder.binop b Ir.And x (Ir.Imm 1023) in
        let addr = Builder.add b base idx in
        if with_prefetch then
          Builder.prefetch b (Builder.add b addr (Ir.Imm 64));
        let v = Builder.load b addr in
        let acc' = Builder.add b acc v in
        if with_store then
          Builder.store b ~addr ~value:(Builder.binop b Ir.Xor acc' i);
        (* Data-dependent diamond merged by the loop phis. *)
        let c = Builder.binop b Ir.And v (Ir.Imm 1) in
        let odd = Builder.new_block b in
        let even = Builder.new_block b in
        let join = Builder.new_block b in
        Builder.br b c odd even;
        Builder.switch_to b odd;
        let s_odd = Builder.add b salt (Ir.Imm 3) in
        Builder.jmp b join;
        Builder.switch_to b even;
        let s_even = Builder.binop b Ir.Xor salt (Ir.Imm 5) in
        Builder.jmp b join;
        Builder.switch_to b join;
        let s' = Builder.phi b [ (odd, s_odd); (even, s_even) ] in
        [ Builder.add b acc' s'; s' ])
  in
  Builder.ret b (Some (List.hd final));
  let f = Builder.finish b in
  Verify.check_exn f;
  f

(* A 2048-word data region of seeded values below 1000; returns the
   memory and the region's base. *)
let fresh_mem ?(seed = 97) () =
  let mem = Memory.create () in
  let r = Memory.alloc mem ~name:"data" ~words:2048 in
  let rng = Aptget_util.Rng.create seed in
  Memory.blit_array mem r
    (Array.init 2048 (fun _ -> Aptget_util.Rng.int rng 1000));
  (mem, r.Memory.base)
