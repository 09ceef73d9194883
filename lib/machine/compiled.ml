(* Closure-compiled execution engine, run as two halves.

   One pass over the {!Compile.t} plan lowers each basic block twice.

   The functional half is one OCaml closure per block with everything
   runtime-invariant pre-resolved: operand shapes (register slot vs
   immediate), constant folds of immediate-only ALU ops and the phi
   moves of every outgoing edge. It updates registers and {!Memory},
   picks the successor, and appends the block's dynamic operands to a
   single-producer/single-consumer int ring (the feed): the address of
   every load, store and prefetch and the amount of every [Work], in
   program order, then the successor block id (-1 after [Ret]).

   The timing half reads those records back in order and does
   everything that depends on cycles: the charges, the hierarchy calls,
   the sampler hooks, the event horizon ({!Exec.horizon}), windows and
   the deadline. It is not a closure per instruction but a loop over a
   static op array per block: the blocking core settles each run of
   pure ALU instructions (Binop/Cmp/Select) at once and re-charges it
   one instruction at a time only when the fuse or the horizon falls
   inside it, so every event is serviced at its exact cycle and the
   fuse payload is the interpreter's [fuse + 1]; the stall-on-use core
   tracks register readiness per instruction. Sampler cycle stamps,
   window boundaries and exception payloads match the interpreter byte
   for byte.

   Ring protocol. The producer publishes [tail] only at block
   boundaries and starts a block only while the ring has room for the
   largest block's records, so the consumer, whenever [tail] is past
   its read position, has at least one whole block to replay and reads
   it without further checks. A functional exception (an out-of-bounds
   {!Memory} access, a missing phi edge) ends production: the producer
   publishes the whole blocks before it and then the exception with
   the number of records the faulting block wrote. Only loads, stores
   and the phi trap can raise, and each writes its record first, so
   the consumer replays the faulting block up to that record, lets the
   hierarchy see a faulting load as the interpreter does, and raises.
   Instruction counts are functional, so the producer also stops at
   the fuse: a store runs only if the interpreter would run it, and no
   memory write happens past a blown fuse.

   Placement. A stepper first refills the ring on its own domain, one
   batch of whole blocks at a time, with the same closures. When a run
   outlasts its first batch and the domain budget has a spare slot
   ({!Aptget_util.Pool.spawn_helper}), production moves to a helper
   domain that runs ahead of the timing half; otherwise the consuming
   domain keeps refilling. Placement never changes what a run
   observes. Memory after a timing-side exception ([Deadline_blown], a
   raising window callback) is unspecified: the functional half may
   have run ahead. The producer is stopped and joined before any step
   re-raises.

   Like the interpreter, each step dispatches exactly one block. *)

module Memory = Aptget_mem.Memory
module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler
module Pool = Aptget_util.Pool
open Exec

(* Every maximum the engine takes is over ints. [Stdlib.max] is
   polymorphic and is not inlined across the library boundary, so each
   call would be an out-of-line polymorphic compare. *)
let[@inline] max (a : int) b = if a >= b then a else b

(* ------------------------------------------------------------------ *)
(* The feed                                                            *)
(* ------------------------------------------------------------------ *)

(* Producer and consumer state live in separate records, padded so the
   fields one side writes on every block never share a cache line with
   the other side's. *)
type producer = {
  mutable p_pad0 : int;
  mutable wpos : int;
  mutable bstart : int;  (* where the block being produced began *)
  mutable fcur : int;  (* next block to produce; -1 once production ended *)
  mutable fi : int;  (* instructions produced, for the store fuse *)
  mutable seen_head : int;
  mutable p_pad1 : int;
  mutable p_pad2 : int;
  mutable p_pad3 : int;
  mutable p_pad4 : int;
  mutable p_pad5 : int;
  mutable p_pad6 : int;
  mutable p_pad7 : int;
}

type consumer = {
  mutable c_pad0 : int;
  mutable rpos : int;
  mutable seen_tail : int;
  mutable pub_head : int;
  mutable refills : int;
  mutable c_pad1 : int;
  mutable c_pad2 : int;
  mutable c_pad3 : int;
  mutable c_pad4 : int;
  mutable c_pad5 : int;
  mutable c_pad6 : int;
  mutable c_pad7 : int;
}

type feed = {
  ring : int array;
  mask : int;
  room : int;  (* a block starts only while [wpos - head <= room] *)
  p : producer;
  c : consumer;
  tail : int Atomic.t;
  head : int Atomic.t;
  fault : (exn * int) option Atomic.t;
  stop : bool Atomic.t;
  sleepers : int Atomic.t;
  lock : Mutex.t;
  wakeup : Condition.t;
  mutable join : (unit -> unit) option;
}

(* Records a helper publishes at a time, and a consumer frees at a
   time, while both run. *)
let chunk = 512

(* Records one refill on the consuming domain writes at most: a batch
   small enough to be replayed from the L1 cache it was written to. *)
let batch = 2048

let make_feed ~max_records =
  let cap =
    let rec pow2 c = if c >= 4 * max_records then c else pow2 (2 * c) in
    pow2 8192
  in
  let zero_p =
    {
      p_pad0 = 0; wpos = 0; bstart = 0; fcur = 0; fi = 0; seen_head = 0;
      p_pad1 = 0; p_pad2 = 0; p_pad3 = 0; p_pad4 = 0; p_pad5 = 0; p_pad6 = 0;
      p_pad7 = 0;
    }
  in
  let zero_c =
    {
      c_pad0 = 0; rpos = 0; seen_tail = 0; pub_head = 0; refills = 0;
      c_pad1 = 0; c_pad2 = 0; c_pad3 = 0; c_pad4 = 0; c_pad5 = 0; c_pad6 = 0;
      c_pad7 = 0;
    }
  in
  {
    ring = Array.make cap 0;
    mask = cap - 1;
    room = cap - max_records;
    p = zero_p;
    c = zero_c;
    tail = Atomic.make 0;
    head = Atomic.make 0;
    fault = Atomic.make None;
    stop = Atomic.make false;
    sleepers = Atomic.make 0;
    lock = Mutex.create ();
    wakeup = Condition.create ();
    join = None;
  }

(* Spin briefly, then sleep until [ready ()]. A waker publishes first
   and then looks for sleepers; a sleeper registers first and then
   re-checks, so no wake-up is lost. *)
let wait fd ready =
  let spins = ref 0 in
  while (not (ready ())) && !spins < 32768 do
    Domain.cpu_relax ();
    incr spins
  done;
  if not (ready ()) then begin
    Mutex.lock fd.lock;
    Atomic.incr fd.sleepers;
    while not (ready ()) do
      Condition.wait fd.wakeup fd.lock
    done;
    Atomic.decr fd.sleepers;
    Mutex.unlock fd.lock
  end

let wake fd =
  if Atomic.get fd.sleepers > 0 then begin
    Mutex.lock fd.lock;
    Condition.broadcast fd.wakeup;
    Mutex.unlock fd.lock
  end

(* [emit fd v] appends one record; the producer checked for room when
   the block started. *)
let[@inline] emit fd v =
  let p = fd.p in
  let w = p.wpos in
  Array.unsafe_set fd.ring (w land fd.mask) v;
  p.wpos <- w + 1

(* [Fault (i, e)]: instruction [i] of the block being produced raised
   [e]. Any other exception counts as raised at the start of its
   block. *)
exception Fault of int * exn

(* Produce whole blocks until the next one could pass [limit], the run
   ends or a block raises, then publish. [fuse] stops production once
   the instruction count is past it: the timing half raises there. *)
let produce fd blocks ~fuse ~limit =
  let p = fd.p in
  let fail e i =
    Atomic.set fd.tail p.bstart;
    Atomic.set fd.fault (Some (e, i));
    p.fcur <- -1
  in
  (try
     while p.fcur >= 0 && p.wpos <= limit do
       p.bstart <- p.wpos;
       p.fcur <- (Array.unsafe_get blocks p.fcur) ();
       if p.fi > fuse && p.fcur >= 0 then begin
         p.bstart <- p.wpos;
         raise (Fuse_blown p.fi)
       end
     done;
     Atomic.set fd.tail p.wpos
   with
  | Fault (i, e) -> fail e i
  | e -> fail e 0);
  wake fd

(* The helper domain's loop: produce a chunk at a time while the ring
   has room, sleep while it is full, leave at the end of the run or
   when the consumer stops it. *)
let helper_loop fd blocks ~fuse () =
  let p = fd.p in
  let has_room () =
    Atomic.get fd.stop || p.wpos - Atomic.get fd.head <= fd.room
  in
  while p.fcur >= 0 && not (Atomic.get fd.stop) do
    if not (has_room ()) then wait fd has_room;
    if not (Atomic.get fd.stop) then
      produce fd blocks ~fuse
        ~limit:(min (Atomic.get fd.head + fd.room) (p.wpos + chunk))
  done

(* Stop and join the helper, if any. Idempotent. *)
let close fd =
  match fd.join with
  | None -> ()
  | Some join ->
    fd.join <- None;
    Atomic.set fd.stop true;
    Mutex.lock fd.lock;
    Condition.broadcast fd.wakeup;
    Mutex.unlock fd.lock;
    join ()

(* Called by the consumer when it has replayed every published record:
   make a whole block available, or return the producer's fault (the
   exception and the instruction that raised it). The
   first refill runs on the consuming domain; later ones hand the
   producer to a helper domain when the budget allows. *)
let refill fd blocks ~fuse =
  let c = fd.c in
  Atomic.set fd.head c.rpos;
  c.pub_head <- c.rpos;
  let ready () =
    Atomic.get fd.tail <> c.rpos || Option.is_some (Atomic.get fd.fault)
  in
  if fd.join = None && fd.p.fcur >= 0 then begin
    if c.refills = 1 then
      fd.join <- Pool.spawn_helper (helper_loop fd blocks ~fuse);
    c.refills <- c.refills + 1;
    if fd.join = None then
      produce fd blocks ~fuse ~limit:(c.rpos + min fd.room batch)
  end;
  if fd.join <> None then begin
    wake fd;
    wait fd ready
  end;
  (* The fault is published after the last tail, so once it is seen
     the tail is final. *)
  match Atomic.get fd.fault with
  | Some f when Atomic.get fd.tail = c.rpos -> Some f
  | _ ->
    c.seen_tail <- Atomic.get fd.tail;
    None

(* Let a running helper reuse the records replayed so far. *)
let[@inline] release fd =
  let c = fd.c in
  if c.rpos - c.pub_head >= chunk && fd.join <> None then begin
    Atomic.set fd.head c.rpos;
    c.pub_head <- c.rpos;
    wake fd
  end

let[@inline] next fd =
  let c = fd.c in
  let r = c.rpos in
  c.rpos <- r + 1;
  Array.unsafe_get fd.ring (r land fd.mask)

(* ------------------------------------------------------------------ *)
(* Functional half, shared by both cores                               *)
(* ------------------------------------------------------------------ *)

(* Block ids index the plan's blocks; trap blocks for missing phi
   edges are numbered after them. *)
type lowering = {
  plan : Compile.t;
  func : Ir.func;
  mutable traps : (int * (unit -> int)) list;  (* entry block, closure; reversed *)
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
      lw.traps <- (dst, trap) :: lw.traps;
      (id, no_moves)
    end

(* Records one block can write: one per load, prefetch and [Work],
   plus the successor. *)
let records (bp : Compile.block_plan) =
  Array.fold_left
    (fun n (i : Ir.instr) ->
      match i.Ir.kind with
      | Ir.Load _ | Ir.Prefetch _ | Ir.Work _ -> n + 1
      | Ir.Binop _ | Ir.Cmp _ | Ir.Select _ | Ir.Store _ -> n)
    1 bp.Compile.bp_instrs

(* [store_limit]: a store runs only while the instructions before it
   number at most this (the fuse for the blocking core, which charges
   after the store; one less for stall-on-use, which issues first). *)
let functional lw fd ~mem ~regs ~ret ~store_limit =
  let plan = lw.plan in
  let p = fd.p in
  let scratch = Array.make (max 1 plan.Compile.cp_max_phis) 0 in
  let fetch = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i in
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
  (* A load's record goes out before [Memory.get] can raise: the
     hierarchy sees a faulting load. Stores write no record. *)
  let load_step ii d : Ir.operand -> unit -> unit =
    let get addr =
      match Memory.get mem addr with
      | v -> v
      | exception e -> raise (Fault (ii, e))
    in
    function
    | Ir.Reg x ->
      fun () ->
        let addr = regs.(x) in
        emit fd addr;
        regs.(d) <- get addr
    | Ir.Imm addr ->
      fun () ->
        emit fd addr;
        regs.(d) <- get addr
  in
  let store_step ii ~before a v : unit -> unit =
   fun () ->
    if p.fi + before > store_limit then
      raise (Fault (ii, Fuse_blown (store_limit + 1)));
    match Memory.set mem (fetch a) (fetch v) with
    | () -> ()
    | exception e -> raise (Fault (ii, e))
  in
  let prefetch_step a : unit -> unit = fun () -> emit fd (fetch a) in
  let work_step w : unit -> unit =
   fun () ->
    let n = max 0 (fetch w) in
    emit fd n;
    p.fi <- p.fi + n
  in
  (* A block's steps: each maximal run of ALU micro-ops becomes one
     step, every other instruction its own. [before] counts the
     non-[Work] instructions ahead of a store. *)
  let lower_instrs (instrs : Ir.instr array) =
    let steps = ref [] in
    let run = ref [] in
    let flush () =
      (match !run with
      | [] -> ()
      | [ one ] -> steps := one :: !steps
      | many ->
        let ops = Array.of_list (List.rev many) in
        let k = Array.length ops in
        steps :=
          (fun () ->
            for j = 0 to k - 1 do
              (Array.unsafe_get ops j) ()
            done)
          :: !steps);
      run := []
    in
    let push step =
      flush ();
      steps := step :: !steps
    in
    let before = ref 0 in
    Array.iteri
      (fun ii (i : Ir.instr) ->
        (match i.Ir.kind with
        | Ir.Binop _ | Ir.Cmp _ | Ir.Select _ -> run := alu_micro i :: !run
        | Ir.Load a -> push (load_step ii i.Ir.dst a)
        | Ir.Store (a, v) -> push (store_step ii ~before:!before a v)
        | Ir.Prefetch a -> push (prefetch_step a)
        | Ir.Work w -> push (work_step w));
        match i.Ir.kind with Ir.Work _ -> () | _ -> incr before)
      instrs;
    flush ();
    (Array.of_list (List.rev !steps), !before + 1)
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
  (* Terminators run the moves of the edge they take, count the
     block's instructions and emit the successor. *)
  let term_closure cur count (t : Ir.terminator) : unit -> int =
    let goto dst =
      let next, mv = edge lw ~moves ~src:cur dst in
      fun () ->
        mv ();
        p.fi <- p.fi + count;
        emit fd next;
        next
    in
    let finish v =
      ret := v;
      p.fi <- p.fi + count;
      emit fd (-1);
      -1
    in
    match t with
    | Ir.Jmp l -> goto l
    | Ir.Br (Ir.Imm c, t1, e) -> goto (if c <> 0 then t1 else e)
    | Ir.Br (Ir.Reg x, t1, e) ->
      let g1 = goto t1 and g2 = goto e in
      fun () -> if regs.(x) <> 0 then g1 () else g2 ()
    | Ir.Ret None -> fun () -> finish None
    | Ir.Ret (Some (Ir.Reg x)) -> fun () -> finish (Some regs.(x))
    | Ir.Ret (Some (Ir.Imm i)) ->
      let r = Some i in
      fun () -> finish r
  in
  let compile_block cur (bp : Compile.block_plan) : unit -> int =
    let steps, count = lower_instrs bp.Compile.bp_instrs in
    let term = term_closure cur count bp.Compile.bp_term in
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
  (* The entry edge: no plan row has predecessor -1, so it carries no
     moves. *)
  let entry, _ = edge lw ~moves ~src:(-1) plan.Compile.cp_entry in
  let traps = List.rev lw.traps in
  ( entry,
    Array.append blocks (Array.of_list (List.map snd traps)),
    (* the block each id enters, for the LBR target PC *)
    Array.append
      (Array.init (Array.length blocks) Fun.id)
      (Array.of_list (List.map fst traps)) )

(* ------------------------------------------------------------------ *)
(* The stepper: timing half plus feed                                  *)
(* ------------------------------------------------------------------ *)

(* The stepper over a feed: each step replays one block's records,
   refilling the ring first when they are used up. [replay b] replays
   block [b] and returns its successor; [replay_fault b i exn] replays
   the instructions before [i] of a block whose instruction [i] raised
   [exn] in the functional half, and raises it. The producer is stopped and joined before a step
   returns false or raises. *)
let feed_stepper fd ~fuse ~entry ~blocks ~replay ~replay_fault =
  fd.p.fcur <- entry;
  let c = fd.c in
  let cur = ref entry in
  let[@inline] advance b =
    (if c.rpos = c.seen_tail then
       match refill fd blocks ~fuse with
       | Some (e, i) -> replay_fault b i e
       | None -> ());
    let next = replay b in
    release fd;
    cur := next
  in
  let fail e =
    cur := -1;
    close fd;
    raise e
  in
  (* [step] replays one block; [run] replays the rest of the run
     without returning between blocks. Neither allocates. *)
  let step () =
    !cur >= 0
    && begin
         (match advance !cur with
         | () -> if !cur < 0 then close fd
         | exception e -> fail e);
         !cur >= 0
       end
  in
  let run () =
    match
      while !cur >= 0 do
        advance !cur
      done
    with
    | () -> close fd
    | exception e -> fail e
  in
  (step, run, fun () -> close fd)

let feed_of_plan (plan : Compile.t) =
  make_feed
    ~max_records:
      (Array.fold_left (fun m bp -> max m (records bp)) 1 plan.Compile.cp_blocks)

(* ------------------------------------------------------------------ *)
(* Blocking core                                                       *)
(* ------------------------------------------------------------------ *)

(* Op kinds of the blocking timing code, in the low 2 bits; the high
   bits carry a run length or a load PC. A run is a maximal sequence
   of one-cycle instructions without a record: ALU ops, stores and,
   in an unsampled run, the terminator. *)
let k_run = 0
let k_load = 1
let k_prefetch = 2
let k_work = 3

let stepper_blocking ~config ~hier ~sampler ~windowing ~mem ~regs
    ~(plan : Compile.t) (f : Ir.func) =
  let st = { cycle = 0; instrs = 0; loads = 0; prefetches = 0 } in
  let l1_lat = (Hierarchy.config hier).Hierarchy.l1_latency in
  let fuse = config.max_instructions in
  let h = make_horizon config ~sampler ~windowing in
  let fd = feed_of_plan plan in
  let ret : int option ref = ref None in
  let entry, blocks, enters =
    functional { plan; func = f; traps = [] } fd ~mem ~regs ~ret
      ~store_limit:fuse
  in
  let target_pcs = Array.map (fun b -> Layout.pc_of_instr b 0) enters in
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
  let load ~pc addr =
    let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle in
    st.loads <- st.loads + 1;
    (match sampler with
    | Some s when Hierarchy.served_from access = Hierarchy.Dram ->
      Sampler.on_llc_miss s ~load_pc:pc ~cycle:st.cycle
    | _ -> ());
    (* L1 hits are pipelined: 1 cycle. Anything deeper stalls the
       in-order core for the extra latency. *)
    charge 1 (1 + max 0 (Hierarchy.latency access - l1_lat))
  in
  let prefetch addr =
    if addr >= 0 then Hierarchy.sw_prefetch hier ~addr ~cycle:st.cycle;
    st.prefetches <- st.prefetches + 1;
    charge 1 1
  in
  let code_of cur (bp : Compile.block_plan) =
    let ops = ref [] and run = ref 0 in
    let push op =
      if !run > 0 then ops := ((!run lsl 2) lor k_run) :: !ops;
      run := 0;
      ops := op :: !ops
    in
    Array.iteri
      (fun ii (i : Ir.instr) ->
        match i.Ir.kind with
        | Ir.Binop _ | Ir.Cmp _ | Ir.Select _ | Ir.Store _ -> incr run
        | Ir.Load _ -> push ((Layout.pc_of_instr cur ii lsl 2) lor k_load)
        | Ir.Prefetch _ -> push k_prefetch
        | Ir.Work _ -> push k_work)
      bp.Compile.bp_instrs;
    if sampler = None then incr run;
    if !run > 0 then ops := ((!run lsl 2) lor k_run) :: !ops;
    Array.of_list (List.rev !ops)
  in
  let codes = Array.mapi code_of plan.Compile.cp_blocks in
  let term_pcs = Array.init (Array.length codes) Layout.pc_of_term in
  let replay b =
    let code = Array.unsafe_get codes b in
    for j = 0 to Array.length code - 1 do
      let op = Array.unsafe_get code j in
      match op land 3 with
      | 0 ->
        let k = op lsr 2 in
        let i = st.instrs + k and cy = st.cycle + k in
        if i > fuse || cy >= h.at then settle k
        else begin
          st.instrs <- i;
          st.cycle <- cy
        end
      | 1 -> load ~pc:(op lsr 2) (next fd)
      | 2 -> prefetch (next fd)
      | _ ->
        let n = next fd in
        charge n n
    done;
    let succ = next fd in
    (* The interpreter's [record_branch]: the LBR record at the
       branch's cycle, then the charge. [Ret] only charges. Without a
       sampler the charge closed the block's last run. *)
    (match sampler with
    | Some s ->
      if succ >= 0 then
        Sampler.on_branch s ~branch_pc:(Array.unsafe_get term_pcs b)
          ~target_pc:(Array.unsafe_get target_pcs succ) ~cycle:st.cycle;
      charge 1 1
    | None -> ());
    succ
  in
  (* Instruction by instruction up to the one that raised: a faulting
     load reaches the hierarchy before [Memory.get] raises, a faulting
     store raises before its charge. Charging a run one instruction at
     a time is what [settle] does whenever an event falls inside it. *)
  let replay_fault b i e =
    if b < Array.length codes then begin
      let instrs = plan.Compile.cp_blocks.(b).Compile.bp_instrs in
      for ii = 0 to min i (Array.length instrs - 1) do
        match instrs.(ii).Ir.kind with
        | Ir.Binop _ | Ir.Cmp _ | Ir.Select _ | Ir.Store _ ->
          if ii < i then charge 1 1
        | Ir.Load _ ->
          let pc = Layout.pc_of_instr b ii and addr = next fd in
          if ii < i then load ~pc addr
          else ignore (Hierarchy.demand_load hier ~pc ~addr ~cycle:st.cycle)
        | Ir.Prefetch _ -> if ii < i then prefetch (next fd)
        | Ir.Work _ ->
          if ii < i then
            let n = next fd in
            charge n n
      done
    end;
    raise e
  in
  let step, run, close =
    feed_stepper fd ~fuse ~entry ~blocks ~replay ~replay_fault
  in
  (st, ret, step, run, close)

(* ------------------------------------------------------------------ *)
(* Stall-on-use core                                                   *)
(* ------------------------------------------------------------------ *)

(* Each instruction's timing op is five ints: kind, then operands.
   Registers absent from an instruction are -1. *)
let sou_alu = 0
let sou_load = 1
let sou_store = 2
let sou_prefetch = 3

let stepper_stall_on_use ~config ~hier ~sampler ~windowing ~mem ~regs ~window
    ~(plan : Compile.t) (f : Ir.func) =
  let st = { cycle = 0; instrs = 0; loads = 0; prefetches = 0 } in
  let l1_lat = (Hierarchy.config hier).Hierarchy.l1_latency in
  let fuse = config.max_instructions in
  let h = make_horizon config ~sampler ~windowing in
  let fd = feed_of_plan plan in
  let ret : int option ref = ref None in
  (* The core issues before an instruction runs, so a store runs only
     if its own issue stays within the fuse. *)
  let entry, blocks, enters =
    functional { plan; func = f; traps = [] } fd ~mem ~regs ~ret
      ~store_limit:(fuse - 1)
  in
  let target_pcs = Array.map (fun b -> Layout.pc_of_instr b 0) enters in
  let ready = Array.make (Array.length regs) 0 in
  let scratch_ready = Array.make (max 1 plan.Compile.cp_max_phis) 0 in
  let rob = Array.make (max 1 window) 0 in
  let rob_idx = ref 0 in
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
  (* [ready] entries are always >= 0, so the interpreter's [fold max 0]
     over an operand list is a max over its registers. *)
  let[@inline] rdy r = if r < 0 then 0 else ready.(r) in
  let reg = function Ir.Reg r -> r | Ir.Imm _ -> -1 in
  let code_of cur (bp : Compile.block_plan) =
    let code = Array.make (5 * Array.length bp.Compile.bp_instrs) (-1) in
    Array.iteri
      (fun ii (i : Ir.instr) ->
        let set kind a b c d =
          let o = 5 * ii in
          code.(o) <- kind;
          code.(o + 1) <- a;
          code.(o + 2) <- b;
          code.(o + 3) <- c;
          code.(o + 4) <- d
        in
        let d = i.Ir.dst in
        match i.Ir.kind with
        | Ir.Binop (_, a, b) | Ir.Cmp (_, a, b) -> set sou_alu d (reg a) (reg b) (-1)
        | Ir.Select (c, a, b) -> set sou_alu d (reg c) (reg a) (reg b)
        | Ir.Load a -> set sou_load d (Layout.pc_of_instr cur ii) (reg a) (-1)
        | Ir.Store _ -> set sou_store (-1) (-1) (-1) (-1)
        | Ir.Prefetch a -> set sou_prefetch (reg a) (-1) (-1) (-1)
        | Ir.Work _ -> set 4 (-1) (-1) (-1) (-1))
      bp.Compile.bp_instrs;
    code
  in
  let codes = Array.mapi code_of plan.Compile.cp_blocks in
  let term_pcs = Array.init (Array.length codes) Layout.pc_of_term in
  (* The register a terminator waits for: a branch's condition, or the
     returned value. *)
  let waits =
    Array.map
      (fun (bp : Compile.block_plan) ->
        match bp.Compile.bp_term with
        | Ir.Br (Ir.Reg x, _, _) | Ir.Ret (Some (Ir.Reg x)) -> x
        | Ir.Br (Ir.Imm _, _, _) | Ir.Jmp _ | Ir.Ret _ -> -1)
      plan.Compile.cp_blocks
  in
  (* Phi values inherit the readiness of the taken edge's source
     operands: per block, (successor, destinations, source registers)
     for each edge with phi moves. A trap edge has none. *)
  let edges =
    Array.mapi
      (fun cur (bp : Compile.block_plan) ->
        let dsts =
          match bp.Compile.bp_term with
          | Ir.Jmp l -> [ l ]
          | Ir.Br (_, t, e) -> [ t; e ]
          | Ir.Ret _ -> []
        in
        Array.of_list
          (List.filter_map
             (fun dst ->
               let pm = plan.Compile.cp_blocks.(dst).Compile.bp_phis in
               let row = Compile.phi_row pm cur in
               if Array.length pm.Compile.pm_dsts = 0 || row < 0 then None
               else
                 Some
                   ( dst,
                     pm.Compile.pm_dsts,
                     Array.map reg pm.Compile.pm_rows.(row) ))
             dsts))
      plan.Compile.cp_blocks
  in
  let move_ready b succ =
    let es = Array.unsafe_get edges b in
    let rec go k =
      if k < Array.length es then begin
        let dst, dsts, srcs = es.(k) in
        if dst = succ then begin
          let n = Array.length dsts in
          for k = 0 to n - 1 do
            scratch_ready.(k) <- rdy srcs.(k)
          done;
          for k = 0 to n - 1 do
            ready.(dsts.(k)) <- scratch_ready.(k)
          done
        end
        else go (k + 1)
      end
    in
    go 0
  in
  let alu code o =
    issue 1;
    let start =
      max st.cycle
        (max (max (rdy code.(o + 2)) (rdy code.(o + 3))) (rdy code.(o + 4)))
    in
    ready.(code.(o + 1)) <- start + 1;
    retire (start + 1)
  in
  let load code o addr =
    let pc = code.(o + 2) and d = code.(o + 1) in
    let start = max st.cycle (rdy code.(o + 3)) in
    let access = Hierarchy.demand_load hier ~pc ~addr ~cycle:start in
    st.loads <- st.loads + 1;
    (match sampler with
    | Some s when Hierarchy.served_from access = Hierarchy.Dram ->
      Sampler.on_llc_miss s ~load_pc:pc ~cycle:start
    | _ -> ());
    let completion = start + 1 + max 0 (Hierarchy.latency access - l1_lat) in
    ready.(d) <- completion;
    retire completion
  in
  let prefetch code o addr =
    let start = max st.cycle (rdy code.(o + 1)) in
    if addr >= 0 then Hierarchy.sw_prefetch hier ~addr ~cycle:start;
    st.prefetches <- st.prefetches + 1;
    retire (start + 1)
  in
  let work n =
    if n > 0 then issue n;
    retire st.cycle
  in
  let replay b =
    let code = Array.unsafe_get codes b in
    let o = ref 0 in
    while !o < Array.length code do
      let k = !o in
      (match Array.unsafe_get code k with
      | 0 -> alu code k
      | 1 ->
        issue 1;
        load code k (next fd)
      | 2 ->
        issue 1;
        retire (st.cycle + 1)
      | 3 ->
        issue 1;
        prefetch code k (next fd)
      | _ -> work (next fd));
      o := k + 5
    done;
    let succ = next fd in
    (* The interpreter's [record_branch]: issue, wait for the
       condition, retire, then the LBR record and the phi moves. [Ret]
       issues and waits for its value. *)
    issue 1;
    let w = Array.unsafe_get waits b in
    if w >= 0 then st.cycle <- max st.cycle ready.(w);
    if succ >= 0 then begin
      retire (st.cycle + 1);
      (match sampler with
      | Some s ->
        Sampler.on_branch s ~branch_pc:(Array.unsafe_get term_pcs b)
          ~target_pc:(Array.unsafe_get target_pcs succ) ~cycle:st.cycle
      | None -> ());
      move_ready b succ
    end;
    succ
  in
  let replay_fault b i e =
    if b < Array.length codes then begin
      let code = codes.(b) in
      for ii = 0 to min i ((Array.length code / 5) - 1) do
        let k = 5 * ii in
        let kind = code.(k) in
        if kind = sou_alu then (if ii < i then alu code k)
        else if kind = sou_load then begin
          issue 1;
          let addr = next fd in
          if ii < i then load code k addr
          else
            ignore
              (Hierarchy.demand_load hier ~pc:code.(k + 2) ~addr
                 ~cycle:(max st.cycle (rdy code.(k + 3))))
        end
        else if kind = sou_store then begin
          issue 1;
          if ii < i then retire (st.cycle + 1)
        end
        else if ii < i then
          if kind = sou_prefetch then begin
            issue 1;
            prefetch code k (next fd)
          end
          else work (next fd)
      done
    end;
    raise e
  in
  let step, run, close =
    feed_stepper fd ~fuse ~entry ~blocks ~replay ~replay_fault
  in
  (st, ret, step, run, close)
