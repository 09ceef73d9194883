(** A static, compile-time loop-latency cost model (the llvm-mca /
    IACA analog the paper argues against in §2.5).

    Estimates a loop's per-iteration execution time by summing
    per-instruction costs under fixed assumptions: every load is served
    at [assumed_load_latency] and every data-dependent [Work] amount
    (an input parameter!) is [assumed_work]. The paper's point — which
    the cost-model ablation in the bench reproduces — is that both
    assumptions are wrong exactly when they matter: cache behaviour and
    input-dependent work are only visible dynamically. *)

type config = {
  assumed_load_latency : int;  (** default 4 (an L1 hit) *)
  assumed_work : int;          (** default 0 *)
}

val default_config : config

val loop_iteration_cost : ?config:config -> Ir.func -> Loops.loop -> int
(** Estimated cycles per iteration: the sum of instruction costs over
    every block of the loop body (nested-loop blocks excluded are NOT
    — a static model without trip counts must assume each block runs
    once, which is another systematic error source). Terminators cost
    one cycle each. *)

val static_distance :
  ?config:config -> dram_latency:int -> Ir.func -> Loops.loop -> int
(** The distance Equation (1) would give if [IC] were the static
    estimate and [MC] were a full DRAM miss: the best a profile-free
    compiler could do. Clamped to [1, 128]. *)
