(** Shared substrate of the simulator engines.

    Everything both the interpreter ({!Machine}) and the
    closure-compiled engine ({!Compiled}) must agree on byte-for-byte
    lives here: configuration and fuses, the mutable run state, value
    semantics for ALU/compare ops, parameter binding, the execution
    windowing machinery and the compiled engine's event horizon.
    {!Machine} re-exports the public pieces. *)

type core_model = Blocking | Stall_on_use of { window : int }

type config = {
  hierarchy : Aptget_cache.Hierarchy.config;
  max_instructions : int;
  max_cycles : int;
  core : core_model;
}

val default_config : config
val stall_on_use_config : ?window:int -> unit -> config

exception Fuse_blown of int
exception Deadline_blown of { cycles : int; limit : int }

val check_deadline : config -> int -> unit
(** Raise {!Deadline_blown} when [max_cycles] is positive and exceeded. *)

val eval_binop : Ir.binop -> int -> int -> int
val eval_cmp : Ir.cmp_op -> int -> int -> int

type state = {
  mutable cycle : int;
  mutable instrs : int;
  mutable loads : int;
  mutable prefetches : int;
}

type window_report = {
  w_index : int;
  w_start_cycle : int;
  w_end_cycle : int;
  w_instructions : int;
  w_counters : Aptget_cache.Hierarchy.counters;
}

type windowing = {
  tick : state -> unit;
      (** fire [on_window] if the cycle clock has reached [next_tick] *)
  next_tick : unit -> int;  (** the cycle of the next window boundary *)
  finish : state -> unit;  (** flush the trailing partial window *)
}

val make_windowing :
  hier:Aptget_cache.Hierarchy.t ->
  window_cycles:int ->
  on_window:(window_report -> unit) ->
  windowing
(** [tick st] fires [on_window] once the cycle clock reaches the next
    window boundary, then moves the boundary [window_cycles] past the
    current cycle; [finish st] flushes the trailing partial window. *)

(** The event horizon of a run: the earliest cycle at which a charge
    must run a per-charge hook — the cycle deadline ([max_cycles + 1]),
    the sampler's next LBR snapshot ({!Aptget_pmu.Sampler.next_due}) or
    the next window boundary. A core charges with one compare against
    [at] and calls {!service} once [st.cycle >= at]. *)
type horizon = private {
  mutable at : int;
  h_config : config;
  h_sampler : Aptget_pmu.Sampler.t option;
  h_windowing : windowing option;
}

val make_horizon :
  config ->
  sampler:Aptget_pmu.Sampler.t option ->
  windowing:windowing option ->
  horizon
(** Read the horizon at the start of a run. Make one per run: a
    sampler re-armed by [Sampler.reset] between runs moves its due
    cycle back. *)

val service : horizon -> state -> unit
(** Cold path of a charge: check the deadline, then
    [Sampler.on_cycle], then the window tick (the interpreter's order),
    then re-read [at]. Raises {!Deadline_blown} past the deadline. *)

val bind_params : Ir.func -> int array -> int list -> unit
(** Bind positional args to parameter registers; extras ignored,
    missing ones left at the register default. *)
