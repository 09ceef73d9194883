module Memory = Aptget_mem.Memory
module Rng = Aptget_util.Rng

type params = { table_words : int; updates : int; seed : int }

let default_params = { table_words = 1 lsl 22; updates = 524_288; seed = 31 }

let build p =
  if p.table_words land (p.table_words - 1) <> 0 then
    invalid_arg "Randacc.build: table_words must be a power of two";
  let mem =
    Memory.create ~capacity_words:(p.table_words + p.updates + 65536) ()
  in
  let idx_r = Memory.alloc mem ~name:"idx" ~words:p.updates in
  let table_r = Memory.alloc mem ~name:"T" ~words:p.table_words in
  Workload.alloc_guard mem;
  (* The update stream goes straight into [idx]. The kernel leaves
     T[i] = i xor (the xor of every update to i), so the oracle only
     folds the updates that land on an entry [verify] checks: every
     [stride]th. *)
  let stride = max 1 (p.table_words / 997) in
  let folded = Array.make (((p.table_words - 1) / stride) + 1) 0 in
  let rng = Rng.create p.seed in
  (* A zero-update region still holds one word, which must stay 0. *)
  if p.updates > 0 then
    Memory.init_region mem idx_r (fun _ ->
        let r = Rng.int rng p.table_words in
        if r mod stride = 0 then folded.(r / stride) <- folded.(r / stride) lxor r;
        r);
  Memory.init_region mem table_r Fun.id;
  let bld = Builder.create ~name:"randacc" ~nparams:3 in
  let idx_b, table_b, n_op =
    match Builder.params bld with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:n_op (fun bld i ->
      let iaddr = Builder.add bld idx_b i in
      let r = Builder.load bld iaddr in
      let taddr = Builder.add bld table_b r in
      let v = Builder.load bld taddr in
      let nv = Builder.bxor bld v r in
      Builder.store bld ~addr:taddr ~value:nv);
  Builder.ret bld None;
  let func = Builder.finish bld in
  Verify.check_exn func;
  let verify mem _ =
    let ok = ref (Ok ()) in
    let i = ref 0 in
    while !i < p.table_words do
      let got = Memory.get mem (table_r.Memory.base + !i) in
      let expected = !i lxor folded.(!i / stride) in
      if got <> expected then
        ok :=
          Error (Printf.sprintf "randAcc T[%d] = %d, expected %d" !i got expected);
      i := !i + stride
    done;
    !ok
  in
  {
    Workload.mem;
    func;
    args = [ idx_r.Memory.base; table_r.Memory.base; p.updates ];
    verify;
  }

let workload ?(params = default_params) ~name () =
  Workload.make ~name ~app:"RandAcc"
    ~input:(Printf.sprintf "%dMiB" (params.table_words * 8 / 1024 / 1024))
    ~description:"Measuring memory system performance" ~nested:false
    (fun () -> build params)
