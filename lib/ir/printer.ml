let operand_to_string = function
  | Ir.Reg r -> Printf.sprintf "%%%d" r
  | Ir.Imm i -> string_of_int i

let binop_name = function
  | Ir.Add -> "add"
  | Ir.Sub -> "sub"
  | Ir.Mul -> "mul"
  | Ir.Div -> "div"
  | Ir.Rem -> "rem"
  | Ir.And -> "and"
  | Ir.Or -> "or"
  | Ir.Xor -> "xor"
  | Ir.Shl -> "shl"
  | Ir.Shr -> "shr"

let cmp_name = function
  | Ir.Eq -> "eq"
  | Ir.Ne -> "ne"
  | Ir.Lt -> "lt"
  | Ir.Le -> "le"
  | Ir.Gt -> "gt"
  | Ir.Ge -> "ge"

let instr_to_string (i : Ir.instr) =
  let op = operand_to_string in
  let rhs =
    match i.Ir.kind with
    | Ir.Binop (b, x, y) -> Printf.sprintf "%s %s, %s" (binop_name b) (op x) (op y)
    | Ir.Cmp (c, x, y) -> Printf.sprintf "icmp %s %s, %s" (cmp_name c) (op x) (op y)
    | Ir.Select (c, x, y) ->
      Printf.sprintf "select %s, %s, %s" (op c) (op x) (op y)
    | Ir.Load a -> Printf.sprintf "load [%s]" (op a)
    | Ir.Store (a, v) -> Printf.sprintf "store [%s], %s" (op a) (op v)
    | Ir.Prefetch a -> Printf.sprintf "prefetch [%s]" (op a)
    | Ir.Work n -> Printf.sprintf "work %s" (op n)
  in
  if Ir.defines i then Printf.sprintf "%%%d = %s" i.Ir.dst rhs else rhs

let term_to_string = function
  | Ir.Jmp l -> Printf.sprintf "jmp b%d" l
  | Ir.Br (c, t, f) ->
    Printf.sprintf "br %s, b%d, b%d" (operand_to_string c) t f
  | Ir.Ret None -> "ret"
  | Ir.Ret (Some v) -> Printf.sprintf "ret %s" (operand_to_string v)

let phi_to_string (p : Ir.phi) =
  let edges =
    List.map
      (fun (l, v) -> Printf.sprintf "[b%d: %s]" l (operand_to_string v))
      p.Ir.incoming
  in
  Printf.sprintf "%%%d = phi %s" p.Ir.phi_dst (String.concat " " edges)

let func_to_string (f : Ir.func) =
  let buf = Buffer.create 512 in
  let params =
    String.concat ", " (List.map (fun r -> Printf.sprintf "%%%d" r) f.Ir.params)
  in
  Buffer.add_string buf (Printf.sprintf "func %s(%s):\n" f.Ir.fname params);
  Array.iteri
    (fun bi (b : Ir.block) ->
      Buffer.add_string buf (Printf.sprintf "b%d:\n" bi);
      List.iter
        (fun p -> Buffer.add_string buf (Printf.sprintf "        %s\n" (phi_to_string p)))
        b.Ir.phis;
      Array.iteri
        (fun ii i ->
          Buffer.add_string buf
            (Printf.sprintf "  %5d %s\n" (Layout.pc_of_instr bi ii)
               (instr_to_string i)))
        b.Ir.instrs;
      Buffer.add_string buf
        (Printf.sprintf "  %5d %s\n" (Layout.pc_of_term bi)
           (term_to_string b.Ir.term)))
    f.Ir.blocks;
  Buffer.contents buf
