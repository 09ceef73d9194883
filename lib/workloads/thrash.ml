module Memory = Aptget_mem.Memory

(* Streaming cache-thrasher: repeated stride-8 (one load per line)
   sweeps over an array larger than the shared LLC. Solo it is almost
   pure bandwidth — the hardware stride prefetcher covers it — but as a
   co-runner its fills continuously evict every tenant's LLC lines,
   and inclusion then wipes their private L1/L2 copies too. This is
   the adversarial cache-pressure source for the contention
   experiments. *)

type params = {
  words : int;  (** swept array; should exceed the LLC *)
  passes : int;
}

(* 512 Ki words = 4 MiB, twice the default 2 MiB LLC; 16 passes keeps
   the thrasher live (in block-dispatch count) for the full run of the
   default co-tenants. *)
let default_params = { words = 1 lsl 19; passes = 16 }

let build p =
  if p.words <= 0 || p.passes <= 0 then
    invalid_arg "Thrash.build: sizes must be positive";
  let mem = Memory.create ~capacity_words:(p.words + 65_536) () in
  let arr_r = Memory.alloc mem ~name:"stream" ~words:p.words in
  Workload.alloc_guard mem;
  let value i = (i * 40_503) land 0xFFFF in
  Memory.init_region mem arr_r value;
  let stride = Memory.words_per_line in
  (* params: arr_base, words, passes *)
  let bld = Builder.create ~name:"thrash" ~nparams:3 in
  let a_b, words_op, passes_op =
    match Builder.params bld with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let final =
    Builder.for_loop_acc bld ~from:(Ir.Imm 0) ~bound:(`Op passes_op)
      ~init:[ Ir.Imm 0 ]
      (fun bld _pass accs ->
        let acc = Builder.nth_value bld ~what:"thrash checksum" accs 0 in
        let swept =
          Builder.for_loop_acc bld ~from:(Ir.Imm 0) ~bound:(`Op words_op)
            ~step:stride ~init:[ acc ]
            (fun bld i iaccs ->
              let s = Builder.nth_value bld ~what:"thrash checksum" iaccs 0 in
              let addr = Builder.add bld a_b i in
              let v = Builder.load bld addr in
              [ Builder.add bld s v ])
        in
        [ Builder.nth_value bld ~what:"thrash checksum" swept 0 ])
  in
  Builder.ret bld (Some (Builder.nth_value bld ~what:"thrash checksum" final 0));
  let func = Builder.finish bld in
  Verify.check_exn func;
  let per_pass = ref 0 in
  let i = ref 0 in
  while !i < p.words do
    per_pass := !per_pass + value !i;
    i := !i + stride
  done;
  {
    Workload.mem;
    func;
    args = [ arr_r.Memory.base; p.words; p.passes ];
    verify = Workload.expect_ret (p.passes * !per_pass);
  }

let workload ?(params = default_params) ~name () =
  Workload.make ~name ~app:"Thrash"
    ~input:
      (Printf.sprintf "%dMiBx%d" (params.words * 8 / 1024 / 1024) params.passes)
    ~description:"Streaming LLC-thrashing co-runner" ~nested:true
    (fun () -> build params)
