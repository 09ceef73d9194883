(** Textual rendering of IR functions (LLVM-ish), for debugging, the
    examples, and golden tests. *)

val operand_to_string : Ir.operand -> string
val instr_to_string : Ir.instr -> string
val term_to_string : Ir.terminator -> string

val func_to_string : Ir.func -> string
(** Whole function, one block per paragraph, with layout PCs in the
    margin. *)
