(** Execution-plan builder: the one-time pass both simulator engines
    share before running a function.

    A {!t} pre-resolves everything about a function that does not
    depend on runtime state: per-block phi moves are flattened into one
    operand row per predecessor (phi semantics are parallel, so rows
    are read in full before any register is written), and instruction
    arrays and terminators are laid out for straight dispatch. The
    compiled engine additionally lowers each block of a plan into an
    array of OCaml closures; the interpreter walks the same plan
    structurally. *)

type phi_moves = {
  pm_dsts : int array;  (** one destination register per phi *)
  pm_preds : int array;  (** predecessors every phi has an edge from *)
  pm_rows : Ir.operand array array;  (** row per pred, column per phi *)
}

type block_plan = {
  bp_phis : phi_moves;
  bp_instrs : Ir.instr array;
  bp_term : Ir.terminator;
}

type t = {
  cp_entry : int;
  cp_blocks : block_plan array;
  cp_max_phis : int;  (** widest phi row, for scratch sizing *)
}

val plan : Ir.func -> t
(** Build the execution plan. O(function size); no runtime state. *)

val phi_row : phi_moves -> int -> int
(** [phi_row pm prev] is the row index holding [prev]'s operands, or
    -1 when some phi has no edge from [prev]. *)

val missing_phi_edge : Ir.func -> cur:int -> prev:int -> 'a
(** Cold path: raise [Invalid_argument] naming the first phi (in
    program order) of block [cur] with no edge from [prev]. *)
