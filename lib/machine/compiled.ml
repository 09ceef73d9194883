(* Closure-compiled execution engine.

   Where the interpreter re-matches every instruction on every visit,
   this engine makes one pass over the {!Compile.t} plan and lowers
   each basic block into one OCaml closure with everything
   runtime-invariant pre-resolved: operand shapes (register slot vs
   immediate), layout PCs, branch target PCs, constant folds of
   immediate-only ALU ops, and the phi moves of every outgoing edge. A
   step calls one block closure, which runs the block's steps, its
   terminator and the moves of the edge it takes, and returns the next
   block id — no tag tests, no operand matches, no predecessor search.

   Every run takes the same lowering and the same charge, whether it is
   sampled, windowed, under a cycle deadline or none of these: one add
   per counter, one compare against the instruction fuse and one
   against the event horizon ({!Exec.horizon}). Only a charge that
   reaches the horizon leaves that path for {!Exec.service}, which runs
   the deadline check, the LBR sampler and the window tick in the
   interpreter's order, so sampler cycle stamps, window boundaries and
   [Deadline_blown] payloads match the interpreter byte for byte. PEBS
   ([Sampler.on_llc_miss]) and the LBR branch record stay where the
   interpreter calls them.

   The blocking core batches runs of pure ALU-class instructions
   (Binop/Cmp/Select — register writes only): the run's micro-ops
   execute back to back and the accounting is settled once. When the
   fuse or the horizon falls inside the run, the run is charged again
   one instruction at a time, so each event is serviced at its exact
   cycle and instruction count, the fuse payload is the interpreter's
   [fuse + 1], and no event past the blow is serviced. The hooks read
   no register, and registers written past a blow are unobservable.
   Loads, stores, prefetches and Work stay standalone steps, so the
   cache hierarchy sees the exact same cycle stamps and no memory write
   can happen past a blown fuse.

   A phi edge with no row in the plan lowers to a trap block: the next
   step dispatches it and raises {!Compile.missing_phi_edge}'s error
   where the interpreter raises it, at the start of that step.

   Like the interpreter, each step dispatches exactly one block. *)

module Memory = Aptget_mem.Memory
module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler
open Exec

(* Every maximum the engine takes is over ints. [Stdlib.max] is
   polymorphic and is not inlined across the library boundary, so each
   call would be an out-of-line polymorphic compare. *)
let[@inline] max (a : int) b = if a >= b then a else b

(* Lowering state shared by both cores. Block ids index the plan's
   blocks; trap blocks for missing phi edges are numbered after them. *)
type lowering = {
  plan : Compile.t;
  func : Ir.func;
  mutable traps : (unit -> int) list;  (* reversed *)
}

let no_moves () = ()

(* The block a step enters over the edge [src -> dst] (src = -1 at
   entry) and the phi moves of that edge, lowered by [moves] from the
   plan row of [src]. *)
let edge lw ~moves ~src dst =
  let pm = lw.plan.Compile.cp_blocks.(dst).Compile.bp_phis in
  if Array.length pm.Compile.pm_dsts = 0 then (dst, no_moves)
  else
    let row = Compile.phi_row pm src in
    if row >= 0 then (dst, moves pm.Compile.pm_dsts pm.Compile.pm_rows.(row))
    else begin
      let id = Array.length lw.plan.Compile.cp_blocks + List.length lw.traps in
      let trap () = Compile.missing_phi_edge lw.func ~cur:dst ~prev:src in
      lw.traps <- trap :: lw.traps;
      (id, no_moves)
    end

(* One block dispatch per step: [blocks.(b) ()] runs block [b] and
   returns the next block id, -1 after [Ret]. No plan row has
   predecessor -1, so the entry edge carries no moves. *)
let make_step lw ~moves blocks =
  let entry, _ = edge lw ~moves ~src:(-1) lw.plan.Compile.cp_entry in
  let blocks = Array.append blocks (Array.of_list (List.rev lw.traps)) in
  let cur = ref entry in
  fun () ->
    !cur >= 0
    && begin
         cur := (Array.unsafe_get blocks !cur) ();
         !cur >= 0
       end

(* ------------------------------------------------------------------ *)
(* Blocking core                                                       *)
(* ------------------------------------------------------------------ *)

let stepper_blocking ~config ~hier ~sampler ~windowing ~mem ~regs
    ~(plan : Compile.t) (f : Ir.func) =
  let st = { cycle = 0; instrs = 0; loads = 0; prefetches = 0 } in
  let l1_lat = (Hierarchy.config hier).Hierarchy.l1_latency in
  let fuse = config.max_instructions in
  let h = make_horizon config ~sampler ~windowing in
  let lw = { plan; func = f; traps = [] } in
  let scratch = Array.make (max 1 plan.Compile.cp_max_phis) 0 in
  let ret : int option ref = ref None in
  let fetch = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
  (* The interpreter's charge; its per-charge hooks run only once the
     clock reaches the horizon. *)
  let[@inline] charge n_instr n_cycles =
    st.instrs <- st.instrs + n_instr;
    st.cycle <- st.cycle + n_cycles;
    if st.instrs > fuse then raise (Fuse_blown st.instrs);
    if st.cycle >= h.at then service h st
  in
  (* Settle a run of [k] ALU instructions (one cycle each) at once; if
     the fuse or the horizon falls inside it, charge it again one
     instruction at a time. *)
  let settle k =
    let i0 = st.instrs and c0 = st.cycle in
    st.instrs <- i0 + k;
    st.cycle <- c0 + k;
    if st.instrs > fuse || st.cycle >= h.at then begin
      st.instrs <- i0;
      st.cycle <- c0;
      for _ = 1 to k do
        charge 1 1
      done
    end
  in
  let alu_micro (i : Ir.instr) : unit -> unit =
    let d = i.Ir.dst in
    match i.Ir.kind with
    | Ir.Binop (op, Ir.Reg x, Ir.Reg y) -> (
      match op with
      | Ir.Add -> fun () -> regs.(d) <- regs.(x) + regs.(y)
      | Ir.Sub -> fun () -> regs.(d) <- regs.(x) - regs.(y)
      | Ir.Mul -> fun () -> regs.(d) <- regs.(x) * regs.(y)
      | Ir.Div ->
        fun () ->
          let b = regs.(y) in
          regs.(d) <- (if b = 0 then 0 else regs.(x) / b)
      | Ir.Rem ->
        fun () ->
          let b = regs.(y) in
          regs.(d) <- (if b = 0 then 0 else regs.(x) mod b)
      | Ir.And -> fun () -> regs.(d) <- regs.(x) land regs.(y)
      | Ir.Or -> fun () -> regs.(d) <- regs.(x) lor regs.(y)
      | Ir.Xor -> fun () -> regs.(d) <- regs.(x) lxor regs.(y)
      | Ir.Shl -> fun () -> regs.(d) <- regs.(x) lsl (regs.(y) land 62)
      | Ir.Shr -> fun () -> regs.(d) <- regs.(x) asr (regs.(y) land 62))
    | Ir.Binop (op, Ir.Reg x, Ir.Imm b) -> (
      match op with
      | Ir.Add -> fun () -> regs.(d) <- regs.(x) + b
      | Ir.Sub -> fun () -> regs.(d) <- regs.(x) - b
      | Ir.Mul -> fun () -> regs.(d) <- regs.(x) * b
      | Ir.Div ->
        if b = 0 then fun () -> regs.(d) <- 0
        else fun () -> regs.(d) <- regs.(x) / b
      | Ir.Rem ->
        if b = 0 then fun () -> regs.(d) <- 0
        else fun () -> regs.(d) <- regs.(x) mod b
      | Ir.And -> fun () -> regs.(d) <- regs.(x) land b
      | Ir.Or -> fun () -> regs.(d) <- regs.(x) lor b
      | Ir.Xor -> fun () -> regs.(d) <- regs.(x) lxor b
      | Ir.Shl ->
        let s = b land 62 in
        fun () -> regs.(d) <- regs.(x) lsl s
      | Ir.Shr ->
        let s = b land 62 in
        fun () -> regs.(d) <- regs.(x) asr s)
    | Ir.Binop (op, Ir.Imm a, Ir.Reg y) ->
      fun () -> regs.(d) <- eval_binop op a regs.(y)
    | Ir.Binop (op, Ir.Imm a, Ir.Imm b) ->
      let v = eval_binop op a b in
      fun () -> regs.(d) <- v
    | Ir.Cmp (op, Ir.Reg x, Ir.Reg y) -> (
      match op with
      | Ir.Eq -> fun () -> regs.(d) <- Bool.to_int (regs.(x) = regs.(y))
      | Ir.Ne -> fun () -> regs.(d) <- Bool.to_int (regs.(x) <> regs.(y))
      | Ir.Lt -> fun () -> regs.(d) <- Bool.to_int (regs.(x) < regs.(y))
      | Ir.Le -> fun () -> regs.(d) <- Bool.to_int (regs.(x) <= regs.(y))
      | Ir.Gt -> fun () -> regs.(d) <- Bool.to_int (regs.(x) > regs.(y))
      | Ir.Ge -> fun () -> regs.(d) <- Bool.to_int (regs.(x) >= regs.(y)))
    | Ir.Cmp (op, Ir.Reg x, Ir.Imm b) -> (
      match op with
      | Ir.Eq -> fun () -> regs.(d) <- Bool.to_int (regs.(x) = b)
      | Ir.Ne -> fun () -> regs.(d) <- Bool.to_int (regs.(x) <> b)
      | Ir.Lt -> fun () -> regs.(d) <- Bool.to_int (regs.(x) < b)
      | Ir.Le -> fun () -> regs.(d) <- Bool.to_int (regs.(x) <= b)
      | Ir.Gt -> fun () -> regs.(d) <- Bool.to_int (regs.(x) > b)
      | Ir.Ge -> fun () -> regs.(d) <- Bool.to_int (regs.(x) >= b))
    | Ir.Cmp (op, Ir.Imm a, Ir.Reg y) ->
      fun () -> regs.(d) <- eval_cmp op a regs.(y)
    | Ir.Cmp (op, Ir.Imm a, Ir.Imm b) ->
      let v = eval_cmp op a b in
      fun () -> regs.(d) <- v
    | Ir.Select (Ir.Reg c, a, b) ->
      fun () -> regs.(d) <- (if regs.(c) <> 0 then fetch a else fetch b)
    | Ir.Select (Ir.Imm c, a, b) -> (
      (* Constant condition: the arm is chosen at compile time; the
         other arm is never evaluated, as in the interpreter. *)
      match (if c <> 0 then a else b) with
      | Ir.Reg s -> fun () -> regs.(d) <- regs.(s)
      | Ir.Imm v -> fun () -> regs.(d) <- v)
    | Ir.Load _ | Ir.Store _ | Ir.Prefetch _ | Ir.Work _ ->
      invalid_arg "Compiled.alu_micro: not an ALU instruction"
  in
  let load_step ~pc d (a : Ir.operand) : unit -> unit =
    let[@inline] load addr =
      let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
      regs.(d) <- Memory.get mem addr;
      st.loads <- st.loads + 1;
      (match sampler with
      | Some s when Hierarchy.served_from access = Hierarchy.Dram ->
        Sampler.on_llc_miss s ~load_pc:pc ~cycle:st.cycle
      | _ -> ());
      charge 1 (1 + max 0 (Hierarchy.latency access - l1_lat))
    in
    match a with
    | Ir.Reg x -> fun () -> load regs.(x)
    | Ir.Imm addr -> fun () -> load addr
  in
  let store_step (a : Ir.operand) (v : Ir.operand) : unit -> unit =
   fun () ->
    Memory.set mem (fetch a) (fetch v);
    charge 1 1
  in
  let prefetch_step (a : Ir.operand) : unit -> unit =
   fun () ->
    let addr = fetch a in
    if addr >= 0 then Hierarchy.sw_prefetch hier ~addr ~cycle:st.cycle;
    st.prefetches <- st.prefetches + 1;
    charge 1 1
  in
  let work_step (w : Ir.operand) : unit -> unit =
   fun () ->
    let n = max 0 (fetch w) in
    charge n n
  in
  (* A block's steps: each maximal run of ALU micro-ops becomes one
     step settled once, every other instruction its own step. *)
  let lower_instrs cur (instrs : Ir.instr array) =
    let steps = ref [] in
    let run = ref [] in
    let flush () =
      (match !run with
      | [] -> ()
      | [ one ] ->
        steps :=
          (fun () ->
            one ();
            charge 1 1)
          :: !steps
      | many ->
        let ops = Array.of_list (List.rev many) in
        let k = Array.length ops in
        steps :=
          (fun () ->
            for j = 0 to k - 1 do
              (Array.unsafe_get ops j) ()
            done;
            settle k)
          :: !steps);
      run := []
    in
    let push step =
      flush ();
      steps := step :: !steps
    in
    Array.iteri
      (fun ii (i : Ir.instr) ->
        match i.Ir.kind with
        | Ir.Binop _ | Ir.Cmp _ | Ir.Select _ -> run := alu_micro i :: !run
        | Ir.Load a ->
          push (load_step ~pc:(Layout.pc_of_instr cur ii) i.Ir.dst a)
        | Ir.Store (a, v) -> push (store_step a v)
        | Ir.Prefetch a -> push (prefetch_step a)
        | Ir.Work w -> push (work_step w))
      instrs;
    flush ();
    Array.of_list (List.rev !steps)
  in
  (* Phi moves are parallel: a row is read in full before any register
     is written, unless no operand reads an earlier destination. *)
  let moves dsts (ops : Ir.operand array) =
    let n = Array.length dsts in
    let sequential =
      let ok = ref true in
      Array.iteri
        (fun k op ->
          match op with
          | Ir.Reg r ->
            for j = 0 to k - 1 do
              if dsts.(j) = r then ok := false
            done
          | Ir.Imm _ -> ())
        ops;
      !ok
    in
    match (dsts, ops) with
    | [| d |], [| Ir.Reg s |] -> fun () -> regs.(d) <- regs.(s)
    | [| d |], [| Ir.Imm v |] -> fun () -> regs.(d) <- v
    | _ when sequential ->
      fun () ->
        for k = 0 to n - 1 do
          regs.(dsts.(k)) <- fetch ops.(k)
        done
    | _ ->
      fun () ->
        for k = 0 to n - 1 do
          scratch.(k) <- fetch ops.(k)
        done;
        for k = 0 to n - 1 do
          regs.(dsts.(k)) <- scratch.(k)
        done
  in
  (* Terminators return the next block id (-1 = done) after the moves
     of the edge they take. *)
  let term_closure cur (t : Ir.terminator) : unit -> int =
    let term_pc = Layout.pc_of_term cur in
    let target dst =
      let next, mv = edge lw ~moves ~src:cur dst in
      (Layout.pc_of_instr dst 0, next, mv)
    in
    (* The interpreter's [record_branch]: the LBR record at the
       branch's cycle, then the charge. *)
    let[@inline] take tpc next mv =
      (match sampler with
      | Some s ->
        Sampler.on_branch s ~branch_pc:term_pc ~target_pc:tpc ~cycle:st.cycle
      | None -> ());
      charge 1 1;
      mv ();
      next
    in
    let goto dst =
      let tpc, next, mv = target dst in
      fun () -> take tpc next mv
    in
    match t with
    | Ir.Jmp l -> goto l
    | Ir.Br (Ir.Imm c, t1, e) -> goto (if c <> 0 then t1 else e)
    | Ir.Br (Ir.Reg x, t1, e) ->
      let tpc1, n1, m1 = target t1 in
      let tpc2, n2, m2 = target e in
      fun () -> if regs.(x) <> 0 then take tpc1 n1 m1 else take tpc2 n2 m2
    | Ir.Ret v -> (
      (* The interpreter charges before evaluating the return value, so
         a fuse blown on the Ret never reads a register. *)
      match v with
      | None ->
        fun () ->
          charge 1 1;
          ret := None;
          -1
      | Some (Ir.Reg x) ->
        fun () ->
          charge 1 1;
          ret := Some regs.(x);
          -1
      | Some (Ir.Imm i) ->
        let r = Some i in
        fun () ->
          charge 1 1;
          ret := r;
          -1)
  in
  let compile_block cur (bp : Compile.block_plan) : unit -> int =
    let steps = lower_instrs cur bp.Compile.bp_instrs in
    let term = term_closure cur bp.Compile.bp_term in
    match steps with
    | [||] -> term
    | [| s |] ->
      fun () ->
        s ();
        term ()
    | _ ->
      let n = Array.length steps in
      fun () ->
        for j = 0 to n - 1 do
          (Array.unsafe_get steps j) ()
        done;
        term ()
  in
  let blocks = Array.mapi compile_block plan.Compile.cp_blocks in
  (st, ret, make_step lw ~moves blocks)

(* ------------------------------------------------------------------ *)
(* Stall-on-use core                                                   *)
(* ------------------------------------------------------------------ *)

let stepper_stall_on_use ~config ~hier ~sampler ~windowing ~mem ~regs ~window
    ~(plan : Compile.t) (f : Ir.func) =
  let st = { cycle = 0; instrs = 0; loads = 0; prefetches = 0 } in
  let l1_lat = (Hierarchy.config hier).Hierarchy.l1_latency in
  let fuse = config.max_instructions in
  let h = make_horizon config ~sampler ~windowing in
  let lw = { plan; func = f; traps = [] } in
  let ready = Array.make (Array.length regs) 0 in
  let nscratch = max 1 plan.Compile.cp_max_phis in
  let scratch = Array.make nscratch 0 in
  let scratch_ready = Array.make nscratch 0 in
  let rob = Array.make (max 1 window) 0 in
  let rob_idx = ref 0 in
  let ret : int option ref = ref None in
  let fetch = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
  (* The interpreter's issue; hooks run once the horizon is reached. *)
  let issue n =
    st.instrs <- st.instrs + n;
    st.cycle <- max (st.cycle + n) rob.(!rob_idx);
    if st.instrs > fuse then raise (Fuse_blown st.instrs);
    if st.cycle >= h.at then service h st
  in
  let retire completion =
    rob.(!rob_idx) <- completion;
    rob_idx := (!rob_idx + 1) mod Array.length rob
  in
  (* Readiness of an operand set, pre-shaped: [ready] entries are
     always >= 0, so the interpreter's [fold max 0] over a fresh list
     reduces to a max over the register operands. *)
  let rdy1 = function
    | Ir.Reg r -> fun () -> ready.(r)
    | Ir.Imm _ -> fun () -> 0
  in
  let rdy_of_regs = function
    | [] -> fun () -> 0
    | [ r ] -> fun () -> ready.(r)
    | [ r1; r2 ] -> fun () -> max ready.(r1) ready.(r2)
    | [ r1; r2; r3 ] -> fun () -> max (max ready.(r1) ready.(r2)) ready.(r3)
    | _ -> invalid_arg "Compiled.rdy_of_regs"
  in
  let regs_of ops =
    List.filter_map (function Ir.Reg r -> Some r | Ir.Imm _ -> None) ops
  in
  let step_closure cur ii (i : Ir.instr) : unit -> unit =
    let d = i.Ir.dst in
    match i.Ir.kind with
    | Ir.Binop (op, a, b) ->
      let r2 = rdy_of_regs (regs_of [ a; b ]) in
      let micro =
        match (a, b) with
        | Ir.Reg x, Ir.Reg y ->
          fun () -> regs.(d) <- eval_binop op regs.(x) regs.(y)
        | Ir.Reg x, Ir.Imm y -> fun () -> regs.(d) <- eval_binop op regs.(x) y
        | Ir.Imm x, Ir.Reg y -> fun () -> regs.(d) <- eval_binop op x regs.(y)
        | Ir.Imm x, Ir.Imm y ->
          let v = eval_binop op x y in
          fun () -> regs.(d) <- v
      in
      fun () ->
        issue 1;
        let start = max st.cycle (r2 ()) in
        micro ();
        ready.(d) <- start + 1;
        retire (start + 1)
    | Ir.Cmp (op, a, b) ->
      let r2 = rdy_of_regs (regs_of [ a; b ]) in
      fun () ->
        issue 1;
        let start = max st.cycle (r2 ()) in
        regs.(d) <- eval_cmp op (fetch a) (fetch b);
        ready.(d) <- start + 1;
        retire (start + 1)
    | Ir.Select (c, a, b) ->
      let r3 = rdy_of_regs (regs_of [ c; a; b ]) in
      fun () ->
        issue 1;
        let start = max st.cycle (r3 ()) in
        regs.(d) <- (if fetch c <> 0 then fetch a else fetch b);
        ready.(d) <- start + 1;
        retire (start + 1)
    | Ir.Load a ->
      let pc = Layout.pc_of_instr cur ii in
      let r1 = rdy1 a in
      fun () ->
        issue 1;
        let start = max st.cycle (r1 ()) in
        let addr = fetch a in
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:start in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        (match sampler with
        | Some s when Hierarchy.served_from access = Hierarchy.Dram ->
          Sampler.on_llc_miss s ~load_pc:pc ~cycle:start
        | _ -> ());
        let completion =
          start + 1 + max 0 (Hierarchy.latency access - l1_lat)
        in
        ready.(d) <- completion;
        retire completion
    | Ir.Store (a, v) ->
      fun () ->
        issue 1;
        Memory.set mem (fetch a) (fetch v);
        retire (st.cycle + 1)
    | Ir.Prefetch a ->
      let r1 = rdy1 a in
      fun () ->
        issue 1;
        let start = max st.cycle (r1 ()) in
        let addr = fetch a in
        if addr >= 0 then Hierarchy.sw_prefetch hier ~addr ~cycle:start;
        st.prefetches <- st.prefetches + 1;
        retire (start + 1)
    | Ir.Work w ->
      fun () ->
        let n = max 0 (fetch w) in
        if n > 0 then issue n;
        retire st.cycle
  in
  (* Phi values inherit the readiness of the edge's source operands. *)
  let moves dsts (ops : Ir.operand array) : unit -> unit =
    let n = Array.length dsts in
    fun () ->
      for k = 0 to n - 1 do
        let op = ops.(k) in
        scratch.(k) <- fetch op;
        scratch_ready.(k) <-
          (match op with Ir.Reg r -> ready.(r) | Ir.Imm _ -> 0)
      done;
      for k = 0 to n - 1 do
        let r = dsts.(k) in
        regs.(r) <- scratch.(k);
        ready.(r) <- scratch_ready.(k)
      done
  in
  let term_closure cur (t : Ir.terminator) : unit -> int =
    let term_pc = Layout.pc_of_term cur in
    (* The interpreter's [record_branch]: issue, wait for the
       condition, retire, then the LBR record. *)
    let branch_to ~wait dst =
      let tpc = Layout.pc_of_instr dst 0 in
      let next, mv = edge lw ~moves ~src:cur dst in
      fun () ->
        issue 1;
        if wait >= 0 then st.cycle <- max st.cycle ready.(wait);
        retire (st.cycle + 1);
        (match sampler with
        | Some s ->
          Sampler.on_branch s ~branch_pc:term_pc ~target_pc:tpc
            ~cycle:st.cycle
        | None -> ());
        mv ();
        next
    in
    match t with
    | Ir.Jmp l -> branch_to ~wait:(-1) l
    | Ir.Br (Ir.Imm c, t1, e) -> branch_to ~wait:(-1) (if c <> 0 then t1 else e)
    | Ir.Br (Ir.Reg x, t1, e) ->
      let taken = branch_to ~wait:x t1 in
      let nottaken = branch_to ~wait:x e in
      fun () -> if regs.(x) <> 0 then taken () else nottaken ()
    | Ir.Ret v -> (
      match v with
      | None ->
        fun () ->
          issue 1;
          ret := None;
          -1
      | Some (Ir.Reg x) ->
        fun () ->
          issue 1;
          st.cycle <- max st.cycle ready.(x);
          ret := Some regs.(x);
          -1
      | Some (Ir.Imm i) ->
        let r = Some i in
        fun () ->
          issue 1;
          ret := r;
          -1)
  in
  let compile_block cur (bp : Compile.block_plan) : unit -> int =
    let steps = Array.mapi (step_closure cur) bp.Compile.bp_instrs in
    let term = term_closure cur bp.Compile.bp_term in
    let n = Array.length steps in
    fun () ->
      for j = 0 to n - 1 do
        (Array.unsafe_get steps j) ()
      done;
      term ()
  in
  let blocks = Array.mapi compile_block plan.Compile.cp_blocks in
  (st, ret, make_step lw ~moves blocks)
