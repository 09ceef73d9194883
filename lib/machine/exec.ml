(* Shared substrate of the two simulator engines (the interpreter in
   Machine and the closure-compiled engine in Compiled): configuration,
   run state, value semantics, fuses, execution windows and the event
   horizon. Both engines must charge through the definitions here so
   their cycle accounting stays byte-identical. *)

module Hierarchy = Aptget_cache.Hierarchy
module Sampler = Aptget_pmu.Sampler

type core_model = Blocking | Stall_on_use of { window : int }

type config = {
  hierarchy : Hierarchy.config;
  max_instructions : int;
  max_cycles : int;
  core : core_model;
}

let default_config =
  {
    hierarchy = Hierarchy.default_config;
    max_instructions = 2_000_000_000;
    max_cycles = 0;
    core = Blocking;
  }

let stall_on_use_config ?(window = 64) () =
  { default_config with core = Stall_on_use { window } }

exception Fuse_blown of int
exception Deadline_blown of { cycles : int; limit : int }

let check_deadline config cycle =
  if config.max_cycles > 0 && cycle > config.max_cycles then
    raise (Deadline_blown { cycles = cycle; limit = config.max_cycles })

(* Shared value semantics. *)
let eval_binop op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then 0 else a / b
  | Ir.Rem -> if b = 0 then 0 else a mod b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> a lsl (b land 62)
  | Ir.Shr -> a asr (b land 62)

let eval_cmp op a b =
  let v =
    match op with
    | Ir.Eq -> a = b
    | Ir.Ne -> a <> b
    | Ir.Lt -> a < b
    | Ir.Le -> a <= b
    | Ir.Gt -> a > b
    | Ir.Ge -> a >= b
  in
  if v then 1 else 0

type state = {
  mutable cycle : int;
  mutable instrs : int;
  mutable loads : int;
  mutable prefetches : int;
}

(* ------------------------------------------------------------------ *)
(* Execution windows: periodic counter-delta snapshots for online      *)
(* drift detection. [tick] runs after every charge of the interpreter  *)
(* and, through the event horizon below, whenever the compiled engine  *)
(* reaches [next_tick].                                                *)
(* ------------------------------------------------------------------ *)

type window_report = {
  w_index : int;
  w_start_cycle : int;
  w_end_cycle : int;
  w_instructions : int;
  w_counters : Hierarchy.counters;
}

type windowing = {
  tick : state -> unit;
  next_tick : unit -> int;
  finish : state -> unit;
}

(* [tick st] fires [on_window] whenever the cycle clock reaches the
   next window boundary ([next_tick ()]), then moves the boundary one
   window past the current cycle; [finish st] flushes the trailing
   partial window (if any activity happened since the last
   boundary). *)
let make_windowing ~hier ~window_cycles ~on_window =
  let next = ref window_cycles in
  let idx = ref 0 in
  let prev_counters = ref (Hierarchy.counters hier) in
  let prev_cycle = ref 0 in
  let prev_instrs = ref 0 in
  let emit (st : state) =
    let c = Hierarchy.counters hier in
    on_window
      {
        w_index = !idx;
        w_start_cycle = !prev_cycle;
        w_end_cycle = st.cycle;
        w_instructions = st.instrs - !prev_instrs;
        w_counters = Hierarchy.sub_counters c !prev_counters;
      };
    incr idx;
    prev_counters := c;
    prev_cycle := st.cycle;
    prev_instrs := st.instrs
  in
  let tick (st : state) =
    if st.cycle >= !next then begin
      emit st;
      next := st.cycle + window_cycles
    end
  in
  let finish (st : state) = if st.cycle > !prev_cycle then emit st in
  { tick; next_tick = (fun () -> !next); finish }

(* ------------------------------------------------------------------ *)
(* Event horizon                                                       *)
(* ------------------------------------------------------------------ *)

(* Every per-charge event of a run fires once the cycle clock reaches a
   known cycle: the deadline at [max_cycles + 1], the next LBR snapshot
   at [Sampler.next_due], the next window boundary at [next_tick]. The
   horizon is the earliest of them. A core compares each charge's
   cycle against it and calls [service] only when it is reached;
   [service] runs the interpreter's per-charge hooks in its order and
   re-reads the horizon. The hooks are no-ops before their own due
   cycle, so servicing early is harmless, and each due cycle only
   moves forward during a run, so a horizon read at the start of a
   run and after every service is never late. *)
type horizon = {
  mutable at : int;
  h_config : config;
  h_sampler : Sampler.t option;
  h_windowing : windowing option;
}

let next_event h =
  let at =
    let m = h.h_config.max_cycles in
    if m > 0 && m < max_int then m + 1 else max_int
  in
  let at =
    match h.h_sampler with Some s -> min at (Sampler.next_due s) | None -> at
  in
  match h.h_windowing with Some w -> min at (w.next_tick ()) | None -> at

let make_horizon config ~sampler ~windowing =
  let h =
    { at = 0; h_config = config; h_sampler = sampler; h_windowing = windowing }
  in
  h.at <- next_event h;
  h

let service h st =
  check_deadline h.h_config st.cycle;
  (match h.h_sampler with
  | Some s -> Sampler.on_cycle s ~cycle:st.cycle
  | None -> ());
  (match h.h_windowing with Some w -> w.tick st | None -> ());
  h.at <- next_event h

let bind_params (f : Ir.func) regs args =
  (* Walk params and args in lockstep; extra args are ignored, missing
     ones leave the register at its default, as before. *)
  let rec go ps vs =
    match (ps, vs) with
    | p :: ps', v :: vs' ->
      regs.(p) <- v;
      go ps' vs'
    | _, _ -> ()
  in
  go f.Ir.params args
