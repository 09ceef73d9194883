(** Semantics-preserving IR mutations that invalidate layout PCs.

    Profiles go stale because programs change; these transforms model
    the common ways a recompile perturbs code layout without changing
    what the kernel computes — so the staleness experiments can measure
    how blindly-applied stale hints behave versus fingerprint-remapped
    ones. Every transform returns a fresh function (the input is never
    mutated) that still passes {!Verify} and computes the same result;
    only PCs, block labels and dead instruction padding differ. *)

val pad_entry : Ir.func -> Ir.func
(** Insert a forwarding entry block ahead of every existing block: all
    block labels — and therefore every PC in the function — shift by
    one stride. Models whole-function relocation / renumbering. *)

val insert_dead : Ir.func -> block:Ir.label -> index:int -> count:int -> Ir.func
(** Splice [count] dead instructions (fresh-register [0 + 0] adds) into
    a block at [index]: PCs of that block's later instructions slide by
    [count]. Models small edits above a load. *)

val split_all : ?min_instrs:int -> Ir.func -> Ir.func
(** Split every original block holding at least [min_instrs] (default
    4) instructions at its midpoint: the tail and the terminator move
    into a fresh block appended at the end, successor phis rewritten.
    Splitting a loop's latch or body block models loop splitting /
    peeling: the loop gains a block and its latch PC moves. *)

val collide_load : Ir.func -> pc:int -> Ir.func option
(** Adversarial staleness: slide an {e earlier} load of the same block
    onto [pc]'s slot (by padding dead instructions above it), pushing
    the load originally at [pc] further down. A stale hint for [pc]
    now names a different — typically direct, hardware-covered — load,
    which is the case where blind application actively hurts. [None]
    when [pc] is not a load or no earlier load shares its block. *)
