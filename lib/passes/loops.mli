(** Natural-loop detection and canonical induction variables.

    The injection passes need, per loop: its header, its latch (the
    block carrying the back-edge branch — the PC the LBR-based profiler
    keys iteration times on), its body, its nesting, and its induction
    variable with initial value, step and bound (paper §3.5, including
    non-unit steps like [i *= 2]). *)

type step =
  | Step_add of int   (** iv' = iv + c *)
  | Step_mul of int   (** iv' = iv * c *)
  | Step_other        (** some other update; distance arithmetic
                          unavailable *)

type indvar = {
  iv_reg : Ir.reg;           (** the header phi *)
  init : Ir.operand;
  step : step;
  update_reg : Ir.reg;       (** register carrying the next value *)
  bound : Ir.operand option; (** from the header's exit test, if found *)
}

type loop = {
  header : Ir.label;
  latch : Ir.label;           (** source of the back edge *)
  blocks : Ir.label list;     (** all blocks of the natural loop *)
  preheader : Ir.label option;(** unique out-of-loop predecessor *)
  depth : int;                (** 1 = outermost *)
  parent : int option;        (** index of the enclosing loop *)
  indvar : indvar option;
  latch_pc : int;             (** Layout PC of the latch terminator *)
  header_pc : int;            (** Layout PC of the header terminator *)
}

val analyze : Ir.func -> loop array
(** All natural loops, outermost first. Loops sharing a header are
    merged. Functions built with {!Builder.for_loop} always yield
    single-latch loops with recognised induction variables. *)

val loop_containing : loop array -> Ir.label -> int option
(** Index of the innermost loop whose body contains a block. *)

val loop_of_latch_pc : loop array -> int -> int option
(** Index of the loop whose latch terminator has this PC. *)
