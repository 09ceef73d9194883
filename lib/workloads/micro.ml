module Memory = Aptget_mem.Memory
module Rng = Aptget_util.Rng
module Aj = Aptget_passes.Aj

type params = {
  total : int;
  inner : int;
  complexity : int;
  table_words : int;
  seed : int;
}

let default_params =
  {
    total = 262_144;
    inner = 256;
    complexity = 0;
    table_words = 4 * 1024 * 1024;
    seed = 7;
  }

(* T.(i) is deterministic with a known low bit, so the kernel's
   checksum is predictable without running it. *)
let table_value i = (i * 2654435761) land 0x3FFFFFFF

let indices p =
  let rng = Rng.create p.seed in
  Array.init p.total (fun _ -> Rng.int rng p.table_words)

let accumulate_expected p =
  Array.fold_left (fun acc i -> acc + (table_value i land 1)) 0 (indices p)

let build p =
  if p.total mod p.inner <> 0 then
    invalid_arg "Micro.build: total must be divisible by inner";
  let outer = p.total / p.inner in
  let mem = Memory.create ~capacity_words:(p.table_words + p.total + 65536) () in
  let b_region = Memory.alloc mem ~name:"B" ~words:p.total in
  let t_region = Memory.alloc mem ~name:"T" ~words:p.table_words in
  Workload.alloc_guard mem;
  Memory.blit_array mem b_region (indices p);
  Memory.init_region mem t_region table_value;
  (* params: b_base, t_base, outer, inner, complexity *)
  let bld = Builder.create ~name:"micro" ~nparams:5 in
  let b_base, t_base, outer_op, inner_op, complexity =
    match Builder.params bld with
    | [ a; b; c; d; e ] -> (a, b, c, d, e)
    | _ -> assert false
  in
  let final =
    Builder.for_loop_acc bld ~from:(Ir.Imm 0) ~bound:(`Op outer_op)
      ~init:[ Ir.Imm 0 ]
      (fun bld j accs ->
        let acc_o = List.hd accs in
        Builder.for_loop_acc bld ~from:(Ir.Imm 0) ~bound:(`Op inner_op)
          ~init:[ acc_o ]
          (fun bld i iaccs ->
            let acc = List.hd iaccs in
            let row = Builder.mul bld j inner_op in
            let idx = Builder.add bld row i in
            let b_addr = Builder.add bld b_base idx in
            let t_idx = Builder.load bld b_addr in
            let t_addr = Builder.add bld t_base t_idx in
            let v = Builder.load bld t_addr in
            let bit = Builder.band bld v (Ir.Imm 1) in
            Builder.work bld complexity;
            [ Builder.add bld acc bit ]))
  in
  let checksum = List.hd final in
  Builder.ret bld (Some checksum);
  let func = Builder.finish bld in
  Verify.check_exn func;
  let expected = accumulate_expected p in
  {
    Workload.mem;
    func;
    args =
      [
        b_region.Memory.base;
        t_region.Memory.base;
        outer;
        p.inner;
        p.complexity;
      ];
    verify = Workload.expect_ret expected;
  }

let workload ?(params = default_params) ~name () =
  Workload.make ~name ~app:"micro" ~input:(Printf.sprintf "inner=%d" params.inner)
    ~description:"Listing 1 indirect-access microbenchmark" ~nested:true
    (fun () -> build params)

let delinquent_load_pc (inst : Workload.instance) =
  match Aj.candidate_loads inst.Workload.func with
  | pc :: _ -> pc
  | [] -> invalid_arg "Micro.delinquent_load_pc: no indirect load found"
