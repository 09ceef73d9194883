(* Closure-compiled execution engine.

   Where the interpreter re-matches every instruction on every visit,
   this engine makes one pass over the {!Compile.t} plan and lowers
   each basic block into an array of OCaml closures with everything
   runtime-invariant pre-resolved: operand shapes (register slot vs
   immediate), layout PCs, branch target PCs, constant folds of
   immediate-only ALU ops. Dispatch is then a tight loop over closure
   arrays — no tag tests, no operand matches, no list traffic.

   Two lowering variants keep the engine byte-identical to the
   interpreter (same cycles, same counters, same exception payloads at
   the same points):

   - FAST: no sampler, no execution windows, no cycle deadline. Runs
     of pure ALU-class instructions (Binop/Cmp/Select — register
     writes only) are batched: the run's micro-ops execute back to
     back and the accounting (instrs/cycles/fuse) is settled once per
     run. Registers past a fuse blow are unobservable and the fuse
     payload of a 1-cycle-per-instruction run is always [fuse + 1],
     exactly what the interpreter's per-instruction charge raises.
     Loads, stores, prefetches and Work stay standalone steps so the
     cache hierarchy sees the exact same cycle stamps and no memory
     write can happen past a blown fuse.
   - GENERIC: anything with a sampler, window tick or deadline charges
     per instruction through the same charge closure shapes as the
     interpreter, so sampler cycle stamps, window boundaries and
     [Deadline_blown] payloads match byte-for-byte.

   Like the interpreter, each step dispatches exactly one block. *)

module Memory = Aptget_mem.Memory
module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler
open Exec

type cblock = {
  cb_enter : int -> unit;  (* predecessor block id, -1 at entry *)
  cb_steps : (unit -> unit) array;
  cb_term : unit -> int;  (* next block id; -1 after Ret *)
}

(* One block dispatch: phi moves, the block's steps, the terminator.
   Shared by both cores. *)
let make_step ~(plan : Compile.t) (blocks : cblock array) =
  let cur = ref plan.Compile.cp_entry in
  let prev = ref (-1) in
  let running = ref true in
  fun () ->
    !running
    && begin
         let cb = Array.unsafe_get blocks !cur in
         cb.cb_enter !prev;
         let steps = cb.cb_steps in
         for j = 0 to Array.length steps - 1 do
           (Array.unsafe_get steps j) ()
         done;
         let next = cb.cb_term () in
         if next < 0 then running := false
         else begin
           prev := !cur;
           cur := next
         end;
         !running
       end

(* ------------------------------------------------------------------ *)
(* Blocking core                                                       *)
(* ------------------------------------------------------------------ *)

let stepper_blocking ~config ~hier ~sampler ~wtick ~mem ~regs
    ~(plan : Compile.t) (f : Ir.func) =
  let st = { cycle = 0; instrs = 0; loads = 0; prefetches = 0 } in
  let l1_lat = (Hierarchy.config hier).Hierarchy.l1_latency in
  let fuse = config.max_instructions in
  let scratch = Array.make (max 1 plan.Compile.cp_max_phis) 0 in
  let ret : int option ref = ref None in
  let fetch = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
  let fast =
    (match wtick with None -> true | Some _ -> false)
    && (match sampler with None -> true | Some _ -> false)
    && config.max_cycles <= 0
  in
  (* Same three charge shapes as the interpreter; the generic variant
     routes every instruction through one of them. *)
  let charge =
    match (wtick, sampler) with
    | None, None ->
      fun n_instr n_cycles ->
        st.instrs <- st.instrs + n_instr;
        st.cycle <- st.cycle + n_cycles;
        if st.instrs > fuse then raise (Fuse_blown st.instrs);
        check_deadline config st.cycle
    | None, Some s ->
      fun n_instr n_cycles ->
        st.instrs <- st.instrs + n_instr;
        st.cycle <- st.cycle + n_cycles;
        if st.instrs > fuse then raise (Fuse_blown st.instrs);
        check_deadline config st.cycle;
        Sampler.on_cycle s ~cycle:st.cycle
    | Some tick, _ ->
      fun n_instr n_cycles ->
        st.instrs <- st.instrs + n_instr;
        st.cycle <- st.cycle + n_cycles;
        if st.instrs > fuse then raise (Fuse_blown st.instrs);
        check_deadline config st.cycle;
        (match sampler with
        | Some s -> Sampler.on_cycle s ~cycle:st.cycle
        | None -> ());
        tick st
  in
  (* 1-instruction-1-cycle (or n/n) accounting for effectful steps and
     terminators: inlined fuse check in the fast variant, the full
     charge otherwise. *)
  let pay =
    if fast then (fun n ->
      st.instrs <- st.instrs + n;
      st.cycle <- st.cycle + n;
      if st.instrs > fuse then raise (Fuse_blown st.instrs))
    else fun n -> charge n n
  in
  (* Pure register-write micro-op for ALU-class instructions; no
     accounting. Operand shapes and the binop/cmp selector are
     resolved here, once, instead of per visit. *)
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
    match (a, sampler) with
    | Ir.Reg x, None ->
      if fast then (fun () ->
        let addr = regs.(x) in
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        st.instrs <- st.instrs + 1;
        st.cycle <- st.cycle + 1 + max 0 (Hierarchy.latency access - l1_lat);
        if st.instrs > fuse then raise (Fuse_blown st.instrs))
      else fun () ->
        let addr = regs.(x) in
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        charge 1 (1 + max 0 (Hierarchy.latency access - l1_lat))
    | Ir.Reg x, Some s ->
      fun () ->
        let addr = regs.(x) in
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        if Hierarchy.served_from access = Hierarchy.Dram then
          Sampler.on_llc_miss s ~load_pc:pc ~cycle:st.cycle;
        charge 1 (1 + max 0 (Hierarchy.latency access - l1_lat))
    | Ir.Imm addr, None ->
      fun () ->
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        charge 1 (1 + max 0 (Hierarchy.latency access - l1_lat))
    | Ir.Imm addr, Some s ->
      fun () ->
        let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
        regs.(d) <- Memory.get mem addr;
        st.loads <- st.loads + 1;
        if Hierarchy.served_from access = Hierarchy.Dram then
          Sampler.on_llc_miss s ~load_pc:pc ~cycle:st.cycle;
        charge 1 (1 + max 0 (Hierarchy.latency access - l1_lat))
  in
  let store_step (a : Ir.operand) (v : Ir.operand) : unit -> unit =
    match (a, v) with
    | Ir.Reg x, Ir.Reg y ->
      fun () ->
        Memory.set mem regs.(x) regs.(y);
        pay 1
    | _ ->
      fun () ->
        Memory.set mem (fetch a) (fetch v);
        pay 1
  in
  let prefetch_step (a : Ir.operand) : unit -> unit =
    match a with
    | Ir.Reg x ->
      fun () ->
        let addr = regs.(x) in
        if addr >= 0 then Hierarchy.sw_prefetch hier ~addr ~cycle:st.cycle;
        st.prefetches <- st.prefetches + 1;
        pay 1
    | Ir.Imm addr ->
      if addr >= 0 then fun () ->
        Hierarchy.sw_prefetch hier ~addr ~cycle:st.cycle;
        st.prefetches <- st.prefetches + 1;
        pay 1
      else fun () ->
        st.prefetches <- st.prefetches + 1;
        pay 1
  in
  let work_step (w : Ir.operand) : unit -> unit =
    match w with
    | Ir.Reg x -> fun () -> pay (max 0 regs.(x))
    | Ir.Imm i ->
      let n = max 0 i in
      fun () -> pay n
  in
  (* Terminators return the next block id (-1 = done). Branch target
     PCs are pre-resolved so the sampler hook is a straight call. *)
  let term_closure cur (t : Ir.terminator) : unit -> int =
    let term_pc = Layout.pc_of_term cur in
    let goto target =
      let tpc = Layout.pc_of_instr target 0 in
      match sampler with
      | Some s ->
        fun () ->
          Sampler.on_branch s ~branch_pc:term_pc ~target_pc:tpc
            ~cycle:st.cycle;
          charge 1 1;
          target
      | None ->
        fun () ->
          pay 1;
          target
    in
    match t with
    | Ir.Jmp l -> goto l
    | Ir.Br (Ir.Imm c, t1, e) -> goto (if c <> 0 then t1 else e)
    | Ir.Br (Ir.Reg x, t1, e) -> (
      match sampler with
      | Some s ->
        let tpc = Layout.pc_of_instr t1 0 in
        let epc = Layout.pc_of_instr e 0 in
        fun () ->
          if regs.(x) <> 0 then begin
            Sampler.on_branch s ~branch_pc:term_pc ~target_pc:tpc
              ~cycle:st.cycle;
            charge 1 1;
            t1
          end
          else begin
            Sampler.on_branch s ~branch_pc:term_pc ~target_pc:epc
              ~cycle:st.cycle;
            charge 1 1;
            e
          end
      | None ->
        fun () ->
          if regs.(x) <> 0 then begin
            pay 1;
            t1
          end
          else begin
            pay 1;
            e
          end)
    | Ir.Ret v -> (
      (* The interpreter charges before evaluating the return value, so
         a fuse blown on the Ret never reads a register. *)
      match v with
      | None ->
        fun () ->
          pay 1;
          ret := None;
          -1
      | Some (Ir.Reg x) ->
        fun () ->
          pay 1;
          ret := Some regs.(x);
          -1
      | Some (Ir.Imm i) ->
        let r = Some i in
        fun () ->
          pay 1;
          ret := r;
          -1)
  in
  let enter_closure cur (pm : Compile.phi_moves) : int -> unit =
    let dsts = pm.Compile.pm_dsts in
    let nphi = Array.length dsts in
    if nphi = 0 then fun _ -> ()
    else fun prev ->
      let row = Compile.phi_row pm prev in
      if row < 0 then Compile.missing_phi_edge f ~cur ~prev;
      let ops = pm.Compile.pm_rows.(row) in
      for k = 0 to nphi - 1 do
        scratch.(k) <- fetch ops.(k)
      done;
      for k = 0 to nphi - 1 do
        regs.(dsts.(k)) <- scratch.(k)
      done
  in
  let compile_block cur (bp : Compile.block_plan) : cblock =
    let instrs = bp.Compile.bp_instrs in
    let n = Array.length instrs in
    let steps = ref [] in
    (* reversed *)
    if fast then begin
      (* Batch runs of pure ALU micro-ops behind a single settlement of
         instrs/cycles/fuse. See the header comment for why this stays
         byte-identical. *)
      let pending = ref [] in
      let npend = ref 0 in
      let flush () =
        (match (!pending, !npend) with
        | [], _ -> ()
        | [ one ], _ ->
          steps :=
            (fun () ->
              one ();
              st.instrs <- st.instrs + 1;
              st.cycle <- st.cycle + 1;
              if st.instrs > fuse then raise (Fuse_blown st.instrs))
            :: !steps
        | many, k ->
          let ops = Array.of_list (List.rev many) in
          steps :=
            (fun () ->
              for j = 0 to k - 1 do
                (Array.unsafe_get ops j) ()
              done;
              st.instrs <- st.instrs + k;
              st.cycle <- st.cycle + k;
              if st.instrs > fuse then raise (Fuse_blown (fuse + 1)))
            :: !steps);
        pending := [];
        npend := 0
      in
      for ii = 0 to n - 1 do
        let i = instrs.(ii) in
        match i.Ir.kind with
        | Ir.Binop _ | Ir.Cmp _ | Ir.Select _ ->
          pending := alu_micro i :: !pending;
          incr npend
        | Ir.Load a ->
          flush ();
          steps :=
            load_step ~pc:(Layout.pc_of_instr cur ii) i.Ir.dst a :: !steps
        | Ir.Store (a, v) ->
          flush ();
          steps := store_step a v :: !steps
        | Ir.Prefetch a ->
          flush ();
          steps := prefetch_step a :: !steps
        | Ir.Work w ->
          flush ();
          steps := work_step w :: !steps
      done;
      flush ()
    end
    else
      for ii = 0 to n - 1 do
        let i = instrs.(ii) in
        let step =
          match i.Ir.kind with
          | Ir.Binop _ | Ir.Cmp _ | Ir.Select _ ->
            let micro = alu_micro i in
            fun () ->
              micro ();
              charge 1 1
          | Ir.Load a -> load_step ~pc:(Layout.pc_of_instr cur ii) i.Ir.dst a
          | Ir.Store (a, v) -> store_step a v
          | Ir.Prefetch a -> prefetch_step a
          | Ir.Work w -> work_step w
        in
        steps := step :: !steps
      done;
    {
      cb_enter = enter_closure cur bp.Compile.bp_phis;
      cb_steps = Array.of_list (List.rev !steps);
      cb_term = term_closure cur bp.Compile.bp_term;
    }
  in
  let blocks = Array.mapi compile_block plan.Compile.cp_blocks in
  (st, ret, make_step ~plan blocks)

(* ------------------------------------------------------------------ *)
(* Stall-on-use core                                                   *)
(* ------------------------------------------------------------------ *)

let stepper_stall_on_use ~config ~hier ~sampler ~wtick ~mem ~regs ~window
    ~(plan : Compile.t) (f : Ir.func) =
  let st = { cycle = 0; instrs = 0; loads = 0; prefetches = 0 } in
  let l1_lat = (Hierarchy.config hier).Hierarchy.l1_latency in
  let fuse = config.max_instructions in
  let ready = Array.make (Array.length regs) 0 in
  let nscratch = max 1 plan.Compile.cp_max_phis in
  let scratch = Array.make nscratch 0 in
  let scratch_ready = Array.make nscratch 0 in
  let rob = Array.make (max 1 window) 0 in
  let rob_idx = ref 0 in
  let ret : int option ref = ref None in
  let fetch = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
  let issue =
    match (wtick, sampler) with
    | None, None ->
      fun n ->
        st.instrs <- st.instrs + n;
        st.cycle <- max (st.cycle + n) rob.(!rob_idx);
        if st.instrs > fuse then raise (Fuse_blown st.instrs);
        check_deadline config st.cycle
    | None, Some s ->
      fun n ->
        st.instrs <- st.instrs + n;
        st.cycle <- max (st.cycle + n) rob.(!rob_idx);
        if st.instrs > fuse then raise (Fuse_blown st.instrs);
        check_deadline config st.cycle;
        Sampler.on_cycle s ~cycle:st.cycle
    | Some tick, _ ->
      fun n ->
        st.instrs <- st.instrs + n;
        st.cycle <- max (st.cycle + n) rob.(!rob_idx);
        if st.instrs > fuse then raise (Fuse_blown st.instrs);
        check_deadline config st.cycle;
        (match sampler with
        | Some s -> Sampler.on_cycle s ~cycle:st.cycle
        | None -> ());
        tick st
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
    | Ir.Load a -> (
      let pc = Layout.pc_of_instr cur ii in
      let r1 = rdy1 a in
      match sampler with
      | None ->
        fun () ->
          issue 1;
          let start = max st.cycle (r1 ()) in
          let addr = fetch a in
          let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:start in
          regs.(d) <- Memory.get mem addr;
          st.loads <- st.loads + 1;
          let completion =
            start + 1 + max 0 (Hierarchy.latency access - l1_lat)
          in
          ready.(d) <- completion;
          retire completion
      | Some s ->
        fun () ->
          issue 1;
          let start = max st.cycle (r1 ()) in
          let addr = fetch a in
          let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:start in
          regs.(d) <- Memory.get mem addr;
          st.loads <- st.loads + 1;
          if Hierarchy.served_from access = Hierarchy.Dram then
            Sampler.on_llc_miss s ~load_pc:pc ~cycle:start;
          let completion =
            start + 1 + max 0 (Hierarchy.latency access - l1_lat)
          in
          ready.(d) <- completion;
          retire completion)
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
  let term_closure cur (t : Ir.terminator) : unit -> int =
    let term_pc = Layout.pc_of_term cur in
    let branch_to ~wait target =
      let tpc = Layout.pc_of_instr target 0 in
      match (sampler, wait) with
      | None, None ->
        fun () ->
          issue 1;
          retire (st.cycle + 1);
          target
      | None, Some x ->
        fun () ->
          issue 1;
          st.cycle <- max st.cycle ready.(x);
          retire (st.cycle + 1);
          target
      | Some s, None ->
        fun () ->
          issue 1;
          retire (st.cycle + 1);
          Sampler.on_branch s ~branch_pc:term_pc ~target_pc:tpc
            ~cycle:st.cycle;
          target
      | Some s, Some x ->
        fun () ->
          issue 1;
          st.cycle <- max st.cycle ready.(x);
          retire (st.cycle + 1);
          Sampler.on_branch s ~branch_pc:term_pc ~target_pc:tpc
            ~cycle:st.cycle;
          target
    in
    match t with
    | Ir.Jmp l -> branch_to ~wait:None l
    | Ir.Br (Ir.Imm c, t1, e) -> branch_to ~wait:None (if c <> 0 then t1 else e)
    | Ir.Br (Ir.Reg x, t1, e) -> (
      let taken = branch_to ~wait:(Some x) t1 in
      let nottaken = branch_to ~wait:(Some x) e in
      fun () -> if regs.(x) <> 0 then taken () else nottaken ())
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
  let enter_closure cur (pm : Compile.phi_moves) : int -> unit =
    let dsts = pm.Compile.pm_dsts in
    let nphi = Array.length dsts in
    if nphi = 0 then fun _ -> ()
    else fun prev ->
      let row = Compile.phi_row pm prev in
      if row < 0 then Compile.missing_phi_edge f ~cur ~prev;
      let ops = pm.Compile.pm_rows.(row) in
      for k = 0 to nphi - 1 do
        let op = ops.(k) in
        scratch.(k) <- fetch op;
        scratch_ready.(k) <-
          (match op with Ir.Reg r -> ready.(r) | Ir.Imm _ -> 0)
      done;
      for k = 0 to nphi - 1 do
        let r = dsts.(k) in
        regs.(r) <- scratch.(k);
        ready.(r) <- scratch_ready.(k)
      done
  in
  let compile_block cur (bp : Compile.block_plan) : cblock =
    {
      cb_enter = enter_closure cur bp.Compile.bp_phis;
      cb_steps = Array.mapi (fun ii i -> step_closure cur ii i) bp.Compile.bp_instrs;
      cb_term = term_closure cur bp.Compile.bp_term;
    }
  in
  let blocks = Array.mapi compile_block plan.Compile.cp_blocks in
  (st, ret, make_step ~plan blocks)
