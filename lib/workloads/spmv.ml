module Memory = Aptget_mem.Memory
module Rng = Aptget_util.Rng

(* Sparse matrix-vector product over CSR: y[r] = sum vals[e] * x[cols[e]]
   for e in [rowptr[r], rowptr[r+1]). The x[cols[e]] gather is the
   classic delinquent indirect load APT-GET targets (same shape as
   RandomAccess and BFS), but reached through a nested loop whose inner
   trip count varies per row — the Eq. 2 site decision matters here. *)

type params = {
  rows : int;
  nnz_per_row : int; (** mean; actual row lengths vary around it *)
  x_words : int;     (** dense-vector length; sized past the LLC *)
  seed : int;
}

let default_params =
  { rows = 16_384; nnz_per_row = 8; x_words = 1 lsl 20; seed = 13 }

let build p =
  if p.rows <= 0 || p.nnz_per_row <= 0 || p.x_words <= 0 then
    invalid_arg "Spmv.build: sizes must be positive";
  let rng = Rng.create p.seed in
  (* Row lengths in [1, 2*mean): same total work every run, irregular
     inner trip counts. *)
  let row_len =
    Array.init p.rows (fun _ -> 1 + Rng.int rng ((2 * p.nnz_per_row) - 1))
  in
  let nnz = Array.fold_left ( + ) 0 row_len in
  let rowptr = Array.make (p.rows + 1) 0 in
  for r = 0 to p.rows - 1 do
    rowptr.(r + 1) <- rowptr.(r) + row_len.(r)
  done;
  let x_of i = (i * 2654435761) land 1023 in
  let capacity = p.rows + 1 + (2 * nnz) + p.x_words + p.rows + 65_536 in
  let mem = Memory.create ~capacity_words:capacity () in
  let rowptr_r = Memory.alloc mem ~name:"rowptr" ~words:(p.rows + 1) in
  let cols_r = Memory.alloc mem ~name:"cols" ~words:nnz in
  let vals_r = Memory.alloc mem ~name:"vals" ~words:nnz in
  let x_r = Memory.alloc mem ~name:"x" ~words:p.x_words in
  let y_r = Memory.alloc mem ~name:"y" ~words:p.rows in
  Workload.alloc_guard mem;
  Memory.blit_array mem rowptr_r rowptr;
  Memory.init_region mem cols_r (fun _ -> Rng.int rng p.x_words);
  Memory.init_region mem vals_r (fun _ -> 1 + Rng.int rng 15);
  Memory.init_region mem x_r x_of;
  (* params: rowptr_base, cols_base, vals_base, x_base, y_base, rows *)
  let bld = Builder.create ~name:"spmv" ~nparams:6 in
  let rp_b, c_b, v_b, x_b, y_b, rows_op =
    match Builder.params bld with
    | [ a; b; c; d; e; f ] -> (a, b, c, d, e, f)
    | _ -> assert false
  in
  let final =
    Builder.for_loop_acc bld ~from:(Ir.Imm 0) ~bound:(`Op rows_op)
      ~init:[ Ir.Imm 0 ]
      (fun bld r accs ->
        let total = Builder.nth_value bld ~what:"spmv total" accs 0 in
        let rp_addr = Builder.add bld rp_b r in
        let start = Builder.load bld rp_addr in
        let rp_next = Builder.add bld rp_addr (Ir.Imm 1) in
        let stop = Builder.load bld rp_next in
        let row =
          Builder.for_loop_acc bld ~from:start ~bound:(`Op stop)
            ~init:[ Ir.Imm 0 ]
            (fun bld e raccs ->
              let sum = Builder.nth_value bld ~what:"spmv row sum" raccs 0 in
              let c_addr = Builder.add bld c_b e in
              let c = Builder.load bld c_addr in
              let x_addr = Builder.add bld x_b c in
              let xv = Builder.load bld x_addr in
              let v_addr = Builder.add bld v_b e in
              let v = Builder.load bld v_addr in
              let prod = Builder.mul bld v xv in
              [ Builder.add bld sum prod ])
        in
        let sum = Builder.nth_value bld ~what:"spmv row sum" row 0 in
        let y_addr = Builder.add bld y_b r in
        Builder.store bld ~addr:y_addr ~value:sum;
        [ Builder.add bld total sum ])
  in
  Builder.ret bld (Some (Builder.nth_value bld ~what:"spmv total" final 0));
  let func = Builder.finish bld in
  Verify.check_exn func;
  let y_host = Array.make p.rows 0 in
  let total = ref 0 in
  for r = 0 to p.rows - 1 do
    let sum = ref 0 in
    for e = rowptr.(r) to rowptr.(r + 1) - 1 do
      let col = Memory.get mem (cols_r.Memory.base + e) in
      sum := !sum + (Memory.get mem (vals_r.Memory.base + e) * x_of col)
    done;
    y_host.(r) <- !sum;
    total := !total + !sum
  done;
  let expected_total = !total in
  let stride = max 1 (p.rows / 997) in
  let verify m ret =
    match Workload.expect_ret expected_total m ret with
    | Error _ as e -> e
    | Ok () ->
      let ok = ref (Ok ()) in
      let r = ref 0 in
      while !r < p.rows do
        let got = Memory.get m (y_r.Memory.base + !r) in
        if got <> y_host.(!r) then
          ok :=
            Error
              (Printf.sprintf "spmv: y[%d] = %d, expected %d" !r got
                 y_host.(!r));
        r := !r + stride
      done;
      !ok
  in
  {
    Workload.mem;
    func;
    args =
      [
        rowptr_r.Memory.base;
        cols_r.Memory.base;
        vals_r.Memory.base;
        x_r.Memory.base;
        y_r.Memory.base;
        p.rows;
      ];
    verify;
  }

let workload ?(params = default_params) ~name () =
  Workload.make ~name ~app:"SpMV"
    ~input:
      (Printf.sprintf "%dx%d-nnz%d" params.rows params.x_words
         params.nnz_per_row)
    ~description:"CSR sparse matrix-vector product with indirect x gather"
    ~nested:true
    (fun () -> build params)
