module Memory = Aptget_mem.Memory
module Csr = Aptget_graph.Csr

(* Allocate and fill the (offsets, cols, weights) regions. *)
let layout_csr mem (g : Csr.t) =
  let offsets = Memory.alloc mem ~name:"offsets" ~words:(g.Csr.n + 1) in
  let cols = Memory.alloc mem ~name:"cols" ~words:(max 1 g.Csr.m) in
  let weights = Memory.alloc mem ~name:"weights" ~words:(max 1 g.Csr.m) in
  Memory.blit_array mem offsets g.Csr.offsets;
  Memory.blit_array mem cols g.Csr.cols;
  Memory.blit_array mem weights g.Csr.weights;
  (offsets, cols, weights)

let fresh_mem (g : Csr.t) extra =
  Memory.create ~capacity_words:((2 * g.Csr.m) + (8 * g.Csr.n) + extra + 65536) ()

(* Emit [start = offsets[v]; stop = offsets[v+1]] *)
let row_bounds bld ~off_base v =
  let a0 = Builder.add bld off_base v in
  let start = Builder.load bld a0 in
  let vp1 = Builder.add bld v (Ir.Imm 1) in
  let a1 = Builder.add bld off_base vp1 in
  let stop = Builder.load bld a1 in
  (start, stop)

(* ------------------------------------------------------------------ *)
(* BFS                                                                  *)
(* ------------------------------------------------------------------ *)

let host_bfs (g : Csr.t) source =
  let dist = Array.make g.Csr.n (-1) in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  let visited = ref 1 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun c ->
        if dist.(c) < 0 then begin
          dist.(c) <- dist.(v) + 1;
          incr visited;
          Queue.add c queue
        end)
      (Csr.neighbours g v)
  done;
  (dist, !visited)

let bfs ?(source = 0) (g : Csr.t) =
  let mem = fresh_mem g 0 in
  let off_r, cols_r, _ = layout_csr mem g in
  let vis_r = Memory.alloc mem ~name:"visited" ~words:g.Csr.n in
  let dist_r = Memory.alloc mem ~name:"dist" ~words:g.Csr.n in
  let queue_r = Memory.alloc mem ~name:"queue" ~words:(g.Csr.n + 1) in
  Workload.alloc_guard mem;
  Memory.set mem (vis_r.Memory.base + source) 1;
  Memory.set mem queue_r.Memory.base source;
  (* params: off, cols, vis, dist, queue *)
  let bld = Builder.create ~name:"bfs" ~nparams:5 in
  let off_base, cols_base, vis_base, dist_base, queue_base =
    match Builder.params bld with
    | [ a; b; c; d; e ] -> (a, b, c, d, e)
    | _ -> assert false
  in
  let final =
    Builder.for_loop_acc bld ~from:(Ir.Imm 0) ~bound:(`Acc 0)
      ~init:[ Ir.Imm 1 ]
      (fun bld qi accs ->
        let tail = List.hd accs in
        let qaddr = Builder.add bld queue_base qi in
        let v = Builder.load bld qaddr in
        let start, stop = row_bounds bld ~off_base v in
        let dv_addr = Builder.add bld dist_base v in
        let dv = Builder.load bld dv_addr in
        let dc = Builder.add bld dv (Ir.Imm 1) in
        Builder.for_loop_acc bld ~from:start ~bound:(`Op stop)
          ~init:[ tail ]
          (fun bld e iaccs ->
            let tl = List.hd iaccs in
            let caddr = Builder.add bld cols_base e in
            let c = Builder.load bld caddr in
            let vaddr = Builder.add bld vis_base c in
            let vis = Builder.load bld vaddr in
            let unseen = Builder.cmp bld Ir.Eq vis (Ir.Imm 0) in
            Builder.if_then_acc bld ~cond:unseen ~init:[ tl ] (fun bld ->
                Builder.store bld ~addr:vaddr ~value:(Ir.Imm 1);
                let daddr = Builder.add bld dist_base c in
                Builder.store bld ~addr:daddr ~value:dc;
                let slot = Builder.add bld queue_base tl in
                Builder.store bld ~addr:slot ~value:c;
                [ Builder.add bld tl (Ir.Imm 1) ])))
  in
  Builder.ret bld (Some (List.hd final));
  let func = Builder.finish bld in
  Verify.check_exn func;
  let host_dist, host_visited = host_bfs g source in
  let verify mem ret =
    match ret with
    | Some v when v <> host_visited ->
      Error (Printf.sprintf "BFS visited %d, expected %d" v host_visited)
    | None -> Error "BFS returned no value"
    | Some _ ->
      let ok = ref (Ok ()) in
      let stride = max 1 (g.Csr.n / 997) in
      let check v =
        let got = Memory.get mem (dist_r.Memory.base + v) in
        let expect = if host_dist.(v) < 0 then 0 else host_dist.(v) in
        if got <> expect && host_dist.(v) >= 0 then
          ok :=
            Error (Printf.sprintf "BFS dist[%d] = %d, expected %d" v got expect)
      in
      let v = ref 0 in
      while !v < g.Csr.n do
        check !v;
        v := !v + stride
      done;
      !ok
  in
  {
    Workload.mem;
    func;
    args =
      [
        off_r.Memory.base;
        cols_r.Memory.base;
        vis_r.Memory.base;
        dist_r.Memory.base;
        queue_r.Memory.base;
      ];
    verify;
  }

(* ------------------------------------------------------------------ *)
(* DFS                                                                  *)
(* ------------------------------------------------------------------ *)

let host_dfs (g : Csr.t) source =
  let visited = Array.make g.Csr.n false in
  let stack = ref [ source ] in
  visited.(source) <- true;
  let count = ref 1 in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      let neigh = Csr.neighbours g v in
      Array.iter
        (fun c ->
          if not visited.(c) then begin
            visited.(c) <- true;
            incr count;
            stack := c :: !stack
          end)
        neigh
  done;
  !count

(* Host DFS above pushes neighbours in order and pops LIFO; the IR
   kernel does the same, so visit *counts* match exactly (orders also
   match, but we only check the count plus the visited bitmap). *)
let host_dfs_visited (g : Csr.t) source =
  let visited = Array.make g.Csr.n false in
  let stack = ref [ source ] in
  visited.(source) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      Array.iter
        (fun c ->
          if not visited.(c) then begin
            visited.(c) <- true;
            stack := c :: !stack
          end)
        (Csr.neighbours g v)
  done;
  visited

let dfs ?(source = 0) (g : Csr.t) =
  let mem = fresh_mem g 0 in
  let off_r, cols_r, _ = layout_csr mem g in
  let vis_r = Memory.alloc mem ~name:"visited" ~words:g.Csr.n in
  let stack_r = Memory.alloc mem ~name:"stack" ~words:(g.Csr.n + g.Csr.m + 1) in
  Workload.alloc_guard mem;
  Memory.set mem (vis_r.Memory.base + source) 1;
  Memory.set mem stack_r.Memory.base source;
  let bld = Builder.create ~name:"dfs" ~nparams:4 in
  let off_base, cols_base, vis_base, stack_base =
    match Builder.params bld with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  (* Manual outer while (sp > 0): its induction update is
     data-dependent, so this loop deliberately has no canonical
     indvar. *)
  let entry = Builder.current bld in
  let header = Builder.new_block bld in
  let body = Builder.new_block bld in
  let exit = Builder.new_block bld in
  Builder.jmp bld header;
  Builder.switch_to bld header;
  let sp = Builder.phi bld [ (entry, Ir.Imm 1) ] in
  let count = Builder.phi bld [ (entry, Ir.Imm 1) ] in
  let nonempty = Builder.cmp bld Ir.Gt sp (Ir.Imm 0) in
  Builder.br bld nonempty body exit;
  Builder.switch_to bld body;
  let spm1 = Builder.sub bld sp (Ir.Imm 1) in
  let vaddr = Builder.add bld stack_base spm1 in
  let v = Builder.load bld vaddr in
  let start, stop = row_bounds bld ~off_base v in
  let final =
    Builder.for_loop_acc bld ~from:start ~bound:(`Op stop)
      ~init:[ spm1; count ]
      (fun bld e iaccs ->
        let sp_i = Builder.nth_value bld ~what:"DFS stack accumulator" iaccs 0
        and cnt = Builder.nth_value bld ~what:"DFS count accumulator" iaccs 1 in
        let caddr = Builder.add bld cols_base e in
        let c = Builder.load bld caddr in
        let flag_addr = Builder.add bld vis_base c in
        let vis = Builder.load bld flag_addr in
        let unseen = Builder.cmp bld Ir.Eq vis (Ir.Imm 0) in
        Builder.if_then_acc bld ~cond:unseen ~init:[ sp_i; cnt ] (fun bld ->
            Builder.store bld ~addr:flag_addr ~value:(Ir.Imm 1);
            let slot = Builder.add bld stack_base sp_i in
            Builder.store bld ~addr:slot ~value:c;
            [ Builder.add bld sp_i (Ir.Imm 1); Builder.add bld cnt (Ir.Imm 1) ]))
  in
  let latch = Builder.current bld in
  Builder.jmp bld header;
  Builder.add_incoming bld ~block:header ~phi:sp
    (latch, Builder.nth_value bld ~what:"DFS final stack value" final 0);
  Builder.add_incoming bld ~block:header ~phi:count
    (latch, Builder.nth_value bld ~what:"DFS final count value" final 1);
  Builder.switch_to bld exit;
  Builder.ret bld (Some count);
  let func = Builder.finish bld in
  Verify.check_exn func;
  let host_count = host_dfs g source in
  let host_vis = host_dfs_visited g source in
  let verify mem ret =
    match ret with
    | Some v when v = host_count ->
      let ok = ref (Ok ()) in
      let stride = max 1 (g.Csr.n / 997) in
      let i = ref 0 in
      while !i < g.Csr.n do
        let got = Memory.get mem (vis_r.Memory.base + !i) <> 0 in
        if got <> host_vis.(!i) then
          ok := Error (Printf.sprintf "DFS visited[%d] mismatch" !i);
        i := !i + stride
      done;
      !ok
    | Some v -> Error (Printf.sprintf "DFS visited %d, expected %d" v host_count)
    | None -> Error "DFS returned no value"
  in
  {
    Workload.mem;
    func;
    args =
      [
        off_r.Memory.base; cols_r.Memory.base; vis_r.Memory.base;
        stack_r.Memory.base;
      ];
    verify;
  }

(* ------------------------------------------------------------------ *)
(* PageRank (pull, fixed point)                                         *)
(* ------------------------------------------------------------------ *)

let pr_scale = 1 lsl 12
let pr_alpha_num = 85 (* damping 0.85 in /100 fixed point *)

let host_pagerank (gt : Csr.t) (out_deg : int array) iters =
  let n = gt.Csr.n in
  let rank = Array.make n pr_scale in
  let contrib = Array.make n 0 in
  for _ = 1 to iters do
    for v = 0 to n - 1 do
      let d = if out_deg.(v) = 0 then 1 else out_deg.(v) in
      contrib.(v) <- rank.(v) / d
    done;
    for v = 0 to n - 1 do
      let acc = ref 0 in
      for e = gt.Csr.offsets.(v) to gt.Csr.offsets.(v + 1) - 1 do
        acc := !acc + contrib.(gt.Csr.cols.(e))
      done;
      rank.(v) <- ((100 - pr_alpha_num) * pr_scale / 100) + (pr_alpha_num * !acc / 100)
    done
  done;
  rank

let pagerank ?(iters = 2) (g : Csr.t) =
  (* Pull formulation runs over the transpose; contributions divide by
     the original out-degree. *)
  let gt = Csr.reverse g in
  let out_deg = Array.init g.Csr.n (fun v -> Csr.degree g v) in
  let mem = fresh_mem gt 0 in
  let off_r, cols_r, _ = layout_csr mem gt in
  let deg_r = Memory.alloc mem ~name:"deg" ~words:g.Csr.n in
  let rank_r = Memory.alloc mem ~name:"rank" ~words:g.Csr.n in
  let contrib_r = Memory.alloc mem ~name:"contrib" ~words:g.Csr.n in
  Workload.alloc_guard mem;
  Memory.blit_array mem deg_r out_deg;
  Memory.blit_array mem rank_r (Array.make g.Csr.n pr_scale);
  let bld = Builder.create ~name:"pagerank" ~nparams:7 in
  let off_base, cols_base, deg_base, rank_base, contrib_base, n_op, iters_op =
    match Builder.params bld with
    | [ a; b; c; d; e; f; g ] -> (a, b, c, d, e, f, g)
    | _ -> assert false
  in
  Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:iters_op (fun bld _it ->
      (* contribution pass *)
      Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:n_op (fun bld v ->
          let raddr = Builder.add bld rank_base v in
          let r = Builder.load bld raddr in
          let daddr = Builder.add bld deg_base v in
          let d = Builder.load bld daddr in
          let dz = Builder.cmp bld Ir.Eq d (Ir.Imm 0) in
          let dd = Builder.select bld dz (Ir.Imm 1) d in
          let c = Builder.div bld r dd in
          let caddr = Builder.add bld contrib_base v in
          Builder.store bld ~addr:caddr ~value:c);
      (* pull pass *)
      Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:n_op (fun bld v ->
          let start, stop = row_bounds bld ~off_base v in
          let sums =
            Builder.for_loop_acc bld ~from:start ~bound:(`Op stop)
              ~init:[ Ir.Imm 0 ]
              (fun bld e iaccs ->
                let acc = List.hd iaccs in
                let caddr = Builder.add bld cols_base e in
                let c = Builder.load bld caddr in
                let kaddr = Builder.add bld contrib_base c in
                let k = Builder.load bld kaddr in
                [ Builder.add bld acc k ])
          in
          let acc = List.hd sums in
          let base_part = Ir.Imm ((100 - pr_alpha_num) * pr_scale / 100) in
          let scaled = Builder.mul bld acc (Ir.Imm pr_alpha_num) in
          let damped = Builder.div bld scaled (Ir.Imm 100) in
          let nr = Builder.add bld base_part damped in
          let raddr = Builder.add bld rank_base v in
          Builder.store bld ~addr:raddr ~value:nr));
  Builder.ret bld None;
  let func = Builder.finish bld in
  Verify.check_exn func;
  let host_rank = host_pagerank gt out_deg iters in
  let verify mem _ =
    let ok = ref (Ok ()) in
    let stride = max 1 (g.Csr.n / 997) in
    let v = ref 0 in
    while !v < g.Csr.n do
      let got = Memory.get mem (rank_r.Memory.base + !v) in
      if got <> host_rank.(!v) then
        ok :=
          Error
            (Printf.sprintf "PR rank[%d] = %d, expected %d" !v got host_rank.(!v));
      v := !v + stride
    done;
    !ok
  in
  {
    Workload.mem;
    func;
    args =
      [
        off_r.Memory.base; cols_r.Memory.base; deg_r.Memory.base;
        rank_r.Memory.base; contrib_r.Memory.base; g.Csr.n; iters;
      ];
    verify;
  }

(* ------------------------------------------------------------------ *)
(* SSSP (Bellman-Ford rounds)                                           *)
(* ------------------------------------------------------------------ *)

let sssp_inf = 1 lsl 40

let host_sssp (g : Csr.t) source rounds =
  let dist = Array.make g.Csr.n sssp_inf in
  dist.(source) <- 0;
  for _ = 1 to rounds do
    for v = 0 to g.Csr.n - 1 do
      let dv = dist.(v) in
      if dv < sssp_inf then
        for e = g.Csr.offsets.(v) to g.Csr.offsets.(v + 1) - 1 do
          let c = g.Csr.cols.(e) in
          let nd = dv + g.Csr.weights.(e) in
          if nd < dist.(c) then dist.(c) <- nd
        done
    done
  done;
  dist

let sssp ?(source = 0) ?(rounds = 2) (g : Csr.t) =
  let mem = fresh_mem g 0 in
  let off_r, cols_r, wts_r = layout_csr mem g in
  let dist_r = Memory.alloc mem ~name:"dist" ~words:g.Csr.n in
  Workload.alloc_guard mem;
  Memory.blit_array mem dist_r (Array.make g.Csr.n sssp_inf);
  Memory.set mem (dist_r.Memory.base + source) 0;
  let bld = Builder.create ~name:"sssp" ~nparams:6 in
  let off_base, cols_base, wts_base, dist_base, n_op, rounds_op =
    match Builder.params bld with
    | [ a; b; c; d; e; f ] -> (a, b, c, d, e, f)
    | _ -> assert false
  in
  Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:rounds_op (fun bld _r ->
      Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:n_op (fun bld v ->
          let dvaddr = Builder.add bld dist_base v in
          let dv = Builder.load bld dvaddr in
          let reached = Builder.cmp bld Ir.Lt dv (Ir.Imm sssp_inf) in
          ignore
            (Builder.if_then_acc bld ~cond:reached ~init:[] (fun bld ->
                 let start, stop = row_bounds bld ~off_base v in
                 Builder.for_loop bld ~from:start ~bound:stop (fun bld e ->
                     let caddr = Builder.add bld cols_base e in
                     let c = Builder.load bld caddr in
                     let waddr = Builder.add bld wts_base e in
                     let w = Builder.load bld waddr in
                     let dcaddr = Builder.add bld dist_base c in
                     let dc = Builder.load bld dcaddr in
                     let nd = Builder.add bld dv w in
                     let better = Builder.cmp bld Ir.Lt nd dc in
                     ignore
                       (Builder.if_then_acc bld ~cond:better ~init:[]
                          (fun bld ->
                            Builder.store bld ~addr:dcaddr ~value:nd;
                            [])));
                 []))));
  Builder.ret bld None;
  let func = Builder.finish bld in
  Verify.check_exn func;
  let host_dist = host_sssp g source rounds in
  let verify mem _ =
    let ok = ref (Ok ()) in
    let stride = max 1 (g.Csr.n / 997) in
    let v = ref 0 in
    while !v < g.Csr.n do
      let got = Memory.get mem (dist_r.Memory.base + !v) in
      if got <> host_dist.(!v) then
        ok :=
          Error
            (Printf.sprintf "SSSP dist[%d] = %d, expected %d" !v got
               host_dist.(!v));
      v := !v + stride
    done;
    !ok
  in
  {
    Workload.mem;
    func;
    args =
      [
        off_r.Memory.base; cols_r.Memory.base; wts_r.Memory.base;
        dist_r.Memory.base; g.Csr.n; rounds;
      ];
    verify;
  }

(* ------------------------------------------------------------------ *)
(* Betweenness centrality (single source, fixed point)                  *)
(* ------------------------------------------------------------------ *)

let bc_inf = 1 lsl 40
let bc_scale = 1 lsl 10

let host_bc_forward (g : Csr.t) source max_rounds =
  let depth = Array.make g.Csr.n bc_inf in
  let sigma = Array.make g.Csr.n 0 in
  depth.(source) <- 0;
  sigma.(source) <- 1;
  for lvl = 0 to max_rounds - 1 do
    for v = 0 to g.Csr.n - 1 do
      if depth.(v) = lvl then
        for e = g.Csr.offsets.(v) to g.Csr.offsets.(v + 1) - 1 do
          let c = g.Csr.cols.(e) in
          if depth.(c) = bc_inf then depth.(c) <- lvl + 1;
          if depth.(c) = lvl + 1 then sigma.(c) <- sigma.(c) + sigma.(v)
        done
    done
  done;
  (depth, sigma)

let bc ?(source = 0) ?(max_rounds = 12) (g : Csr.t) =
  let mem = fresh_mem g 0 in
  let off_r, cols_r, _ = layout_csr mem g in
  let depth_r = Memory.alloc mem ~name:"depth" ~words:g.Csr.n in
  let sigma_r = Memory.alloc mem ~name:"sigma" ~words:g.Csr.n in
  let delta_r = Memory.alloc mem ~name:"delta" ~words:g.Csr.n in
  Workload.alloc_guard mem;
  Memory.blit_array mem depth_r (Array.make g.Csr.n bc_inf);
  Memory.set mem (depth_r.Memory.base + source) 0;
  Memory.set mem (sigma_r.Memory.base + source) 1;
  let bld = Builder.create ~name:"bc" ~nparams:7 in
  let off_base, cols_base, depth_base, sigma_base, delta_base, n_op, rounds_op =
    match Builder.params bld with
    | [ a; b; c; d; e; f; g ] -> (a, b, c, d, e, f, g)
    | _ -> assert false
  in
  (* Forward: level-synchronous shortest-path DAG construction. *)
  Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:rounds_op (fun bld lvl ->
      Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:n_op (fun bld v ->
          let daddr = Builder.add bld depth_base v in
          let dv = Builder.load bld daddr in
          let at_lvl = Builder.cmp bld Ir.Eq dv lvl in
          ignore
            (Builder.if_then_acc bld ~cond:at_lvl ~init:[] (fun bld ->
                 let start, stop = row_bounds bld ~off_base v in
                 let svaddr = Builder.add bld sigma_base v in
                 let sv = Builder.load bld svaddr in
                 let lvl1 = Builder.add bld lvl (Ir.Imm 1) in
                 Builder.for_loop bld ~from:start ~bound:stop (fun bld e ->
                     let caddr = Builder.add bld cols_base e in
                     let c = Builder.load bld caddr in
                     let dcaddr = Builder.add bld depth_base c in
                     let dc = Builder.load bld dcaddr in
                     let fresh = Builder.cmp bld Ir.Eq dc (Ir.Imm bc_inf) in
                     ignore
                       (Builder.if_then_acc bld ~cond:fresh ~init:[]
                          (fun bld ->
                            Builder.store bld ~addr:dcaddr ~value:lvl1;
                            []));
                     let dc2 = Builder.load bld dcaddr in
                     let child = Builder.cmp bld Ir.Eq dc2 lvl1 in
                     ignore
                       (Builder.if_then_acc bld ~cond:child ~init:[]
                          (fun bld ->
                            let scaddr = Builder.add bld sigma_base c in
                            let sc = Builder.load bld scaddr in
                            let ns = Builder.add bld sc sv in
                            Builder.store bld ~addr:scaddr ~value:ns;
                            [])));
                 []))));
  (* Backward: dependency accumulation, descending levels. *)
  Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:rounds_op (fun bld r ->
      let rm = Builder.sub bld rounds_op (Ir.Imm 1) in
      let lvl = Builder.sub bld rm r in
      Builder.for_loop bld ~from:(Ir.Imm 0) ~bound:n_op (fun bld v ->
          let daddr = Builder.add bld depth_base v in
          let dv = Builder.load bld daddr in
          let at_lvl = Builder.cmp bld Ir.Eq dv lvl in
          ignore
            (Builder.if_then_acc bld ~cond:at_lvl ~init:[] (fun bld ->
                 let start, stop = row_bounds bld ~off_base v in
                 let svaddr = Builder.add bld sigma_base v in
                 let sv = Builder.load bld svaddr in
                 let lvl1 = Builder.add bld lvl (Ir.Imm 1) in
                 let sums =
                   Builder.for_loop_acc bld ~from:start ~bound:(`Op stop)
                     ~init:[ Ir.Imm 0 ]
                     (fun bld e iaccs ->
                       let acc = List.hd iaccs in
                       let caddr = Builder.add bld cols_base e in
                       let c = Builder.load bld caddr in
                       let dcaddr = Builder.add bld depth_base c in
                       let dc = Builder.load bld dcaddr in
                       let child = Builder.cmp bld Ir.Eq dc lvl1 in
                       Builder.if_then_acc bld ~cond:child ~init:[ acc ]
                         (fun bld ->
                           let scaddr = Builder.add bld sigma_base c in
                           let sc = Builder.load bld scaddr in
                           let dltaddr = Builder.add bld delta_base c in
                           let dlt = Builder.load bld dltaddr in
                           let num = Builder.add bld (Ir.Imm bc_scale) dlt in
                           let prod = Builder.mul bld sv num in
                           let scz = Builder.cmp bld Ir.Eq sc (Ir.Imm 0) in
                           let scd = Builder.select bld scz (Ir.Imm 1) sc in
                           let share = Builder.div bld prod scd in
                           [ Builder.add bld acc share ]))
                 in
                 let dvaddr = Builder.add bld delta_base v in
                 Builder.store bld ~addr:dvaddr ~value:(List.hd sums);
                 []))));
  Builder.ret bld None;
  let func = Builder.finish bld in
  Verify.check_exn func;
  let host_depth, host_sigma = host_bc_forward g source max_rounds in
  let verify mem _ =
    let ok = ref (Ok ()) in
    let stride = max 1 (g.Csr.n / 997) in
    let v = ref 0 in
    while !v < g.Csr.n do
      let gd = Memory.get mem (depth_r.Memory.base + !v) in
      let gs = Memory.get mem (sigma_r.Memory.base + !v) in
      if gd <> host_depth.(!v) then
        ok := Error (Printf.sprintf "BC depth[%d] = %d, expected %d" !v gd host_depth.(!v))
      else if gs <> host_sigma.(!v) then
        ok := Error (Printf.sprintf "BC sigma[%d] = %d, expected %d" !v gs host_sigma.(!v))
      else begin
        let dlt = Memory.get mem (delta_r.Memory.base + !v) in
        if dlt < 0 then ok := Error (Printf.sprintf "BC delta[%d] negative" !v)
      end;
      v := !v + stride
    done;
    !ok
  in
  {
    Workload.mem;
    func;
    args =
      [
        off_r.Memory.base; cols_r.Memory.base; depth_r.Memory.base;
        sigma_r.Memory.base; delta_r.Memory.base; g.Csr.n; max_rounds;
      ];
    verify;
  }
