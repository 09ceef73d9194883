module Memory = Aptget_mem.Memory
module Rng = Aptget_util.Rng

type kind = Hot | Cold

let kind_to_string = function Hot -> "hot" | Cold -> "cold"

type params = {
  inner : int;
  complexity : int;
  hot_words : int;
  table_words : int;
  seed : int;
  phases : (kind * int) list;
}

(* Defaults sized so the two phases sit on opposite sides of the cache
   hierarchy: Hot indices stay inside [hot_words] (L1-resident), Cold
   indices roam the whole table (several times the LLC). The cold lead
   phase is what a whole-program profile mostly sees stalling, so its
   hints are live during the hot phases that dominate the element
   count — the aging-profile scenario the online loop exists for. *)
let default_params =
  {
    inner = 256;
    complexity = 0;
    hot_words = 4_096;
    table_words = 2 * 1024 * 1024;
    seed = 11;
    phases = (Cold, 16_384) :: List.init 22 (fun _ -> (Hot, 32_768));
  }

let total p = List.fold_left (fun acc (_, n) -> acc + n) 0 p.phases

let check p =
  if p.inner <= 0 then invalid_arg "Phased: inner must be positive";
  if p.hot_words <= 0 || p.hot_words > p.table_words then
    invalid_arg "Phased: hot_words must be in [1, table_words]";
  if p.phases = [] then invalid_arg "Phased: phases must be non-empty";
  List.iter
    (fun (_, n) ->
      if n <= 0 || n mod p.inner <> 0 then
        invalid_arg
          "Phased: every phase length must be a positive multiple of inner")
    p.phases

let table_value i = (i * 2654435761) land 0x3FFFFFFF

(* One RNG stream across all phases, in order: segment views index into
   the very same B contents the fused run sees. *)
let indices p =
  let rng = Rng.create p.seed in
  let b = Array.make (total p) 0 in
  let pos = ref 0 in
  List.iter
    (fun (kind, n) ->
      let bound = match kind with Hot -> p.hot_words | Cold -> p.table_words in
      for _ = 1 to n do
        b.(!pos) <- Rng.int rng bound;
        incr pos
      done)
    p.phases;
  b

(* Same kernel shape (and therefore same PCs and structural
   fingerprints) for the fused program and every segment view: only the
   arguments select which window of B a run walks. [build] lays out the
   fused program; [view] narrows a built instance to one window. *)
let build p =
  check p;
  let n = total p in
  let mem = Memory.create ~capacity_words:(p.table_words + n + 65536) () in
  let b_region = Memory.alloc mem ~name:"B" ~words:n in
  let t_region = Memory.alloc mem ~name:"T" ~words:p.table_words in
  Workload.alloc_guard mem;
  let b = indices p in
  Memory.blit_array mem b_region b;
  Memory.init_region mem t_region table_value;
  (* params: b_base, t_base, outer, inner, complexity *)
  let bld = Builder.create ~name:"phased" ~nparams:5 in
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
  let expected =
    Array.fold_left (fun acc i -> acc + (table_value i land 1)) 0 b
  in
  {
    Workload.mem;
    func;
    args =
      [ b_region.Memory.base; t_region.Memory.base; n / p.inner; p.inner;
        p.complexity ];
    verify = Workload.expect_ret expected;
  }

(* The window's checksum is read back from the image itself, so a view
   needs nothing but the built instance. *)
let view p ~offset ~count (inst : Workload.instance) =
  match inst.Workload.args with
  | b_base :: t_base :: _ ->
    let mem = inst.Workload.mem in
    let expected = ref 0 in
    for i = b_base + offset to b_base + offset + count - 1 do
      expected := !expected + (Memory.get mem (t_base + Memory.get mem i) land 1)
    done;
    {
      inst with
      Workload.args =
        [ b_base + offset; t_base; count / p.inner; p.inner; p.complexity ];
      verify = Workload.expect_ret !expected;
    }
  | _ -> assert false

let phase_tag phases =
  String.concat "" (List.map (fun (k, _) -> match k with Hot -> "H" | Cold -> "C") phases)

let workload ?(params = default_params) ~name () =
  check params;
  Workload.make ~name ~app:"phased"
    ~input:(Printf.sprintf "phases=%s" (phase_tag params.phases))
    ~description:"Indirect-access kernel with alternating working-set phases"
    ~nested:true
    (fun () -> build params)

(* Every segment builds through one image record, so all of them alias
   a single copy of the memory image instead of holding one each. *)
let segments ?(params = default_params) ~name () =
  let image = workload ~params ~name () in
  let _, segs =
    List.fold_left
      (fun (offset, acc) (kind, count) ->
        let i = List.length acc + 1 in
        let w =
          Workload.make
            ~name:(Printf.sprintf "%s@%d" name i)
            ~app:"phased" ~input:(kind_to_string kind)
            ~description:
              (Printf.sprintf "phase %d (%s) of %s" i (kind_to_string kind) name)
            ~nested:true
            (fun () -> view params ~offset ~count (image.Workload.build ()))
        in
        (offset + count, (kind, w) :: acc))
      (0, []) params.phases
  in
  List.rev segs
