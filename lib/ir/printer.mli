(** Textual rendering of IR functions (LLVM-ish), for debugging, the
    examples, and golden tests. *)

val func_to_string : Ir.func -> string
(** Whole function, one block per paragraph, with layout PCs in the
    margin. *)
