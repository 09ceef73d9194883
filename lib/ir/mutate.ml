let shift_term d = function
  | Ir.Jmp l -> Ir.Jmp (l + d)
  | Ir.Br (c, t, f) -> Ir.Br (c, t + d, f + d)
  | Ir.Ret v -> Ir.Ret v

let pad_entry (f : Ir.func) =
  let f = Ir.copy_func f in
  let shifted =
    Array.map
      (fun (blk : Ir.block) ->
        {
          Ir.phis =
            List.map
              (fun (p : Ir.phi) ->
                {
                  p with
                  Ir.incoming =
                    List.map (fun (l, v) -> (l + 1, v)) p.Ir.incoming;
                })
              blk.Ir.phis;
          instrs = blk.Ir.instrs;
          term = shift_term 1 blk.Ir.term;
        })
      f.Ir.blocks
  in
  let pad =
    { Ir.phis = []; instrs = [||]; term = Ir.Jmp (f.Ir.entry + 1) }
  in
  { f with Ir.entry = 0; blocks = Array.append [| pad |] shifted }

let dead_instr (f : Ir.func) =
  { Ir.dst = Ir.fresh_reg f; kind = Ir.Binop (Ir.Add, Ir.Imm 0, Ir.Imm 0) }

let insert_dead (f : Ir.func) ~block ~index ~count =
  let f = Ir.copy_func f in
  let blk = f.Ir.blocks.(block) in
  let n = Array.length blk.Ir.instrs in
  let index = max 0 (min index n) in
  let pad = Array.init count (fun _ -> dead_instr f) in
  blk.Ir.instrs <-
    Array.concat
      [ Array.sub blk.Ir.instrs 0 index; pad;
        Array.sub blk.Ir.instrs index (n - index) ];
  f

(* Move a block's instruction tail (from [at]) plus its terminator into
   a fresh block appended at the end, rewriting successor phis. *)
let split_block (f : Ir.func) ~block ~at =
  let f = Ir.copy_func f in
  let blk = f.Ir.blocks.(block) in
  let n = Array.length blk.Ir.instrs in
  let at = max 0 (min at n) in
  let fresh = Array.length f.Ir.blocks in
  let tail =
    {
      Ir.phis = [];
      instrs = Array.sub blk.Ir.instrs at (n - at);
      term = blk.Ir.term;
    }
  in
  (* The split block's old out-edges now originate from the tail. *)
  List.iter
    (fun s ->
      let sb = f.Ir.blocks.(s) in
      sb.Ir.phis <-
        List.map
          (fun (p : Ir.phi) ->
            {
              p with
              Ir.incoming =
                List.map
                  (fun (l, v) -> ((if l = block then fresh else l), v))
                  p.Ir.incoming;
            })
          sb.Ir.phis)
    (Ir.successors blk.Ir.term);
  blk.Ir.instrs <- Array.sub blk.Ir.instrs 0 at;
  blk.Ir.term <- Ir.Jmp fresh;
  { f with Ir.blocks = Array.append f.Ir.blocks [| tail |] }

let split_all ?(min_instrs = 4) (f : Ir.func) =
  let original = Array.length f.Ir.blocks in
  let g = ref (Ir.copy_func f) in
  for b = 0 to original - 1 do
    let n = Array.length !g.Ir.blocks.(b).Ir.instrs in
    if n >= min_instrs then g := split_block !g ~block:b ~at:(n / 2)
  done;
  !g

let collide_load (f : Ir.func) ~pc =
  let b = Layout.block_of_pc pc in
  if b < 0 || b >= Array.length f.Ir.blocks then None
  else
    match Layout.slot_of_pc pc with
    | `Term -> None
    | `Instr i ->
      let blk = f.Ir.blocks.(b) in
      let is_load k =
        k < Array.length blk.Ir.instrs
        && match blk.Ir.instrs.(k).Ir.kind with Ir.Load _ -> true | _ -> false
      in
      if not (is_load i) then None
      else
        let rec earlier k = if k < 0 then None else if is_load k then Some k else earlier (k - 1) in
        (match earlier (i - 1) with
        | None -> None
        | Some j ->
          (* Pad above the earlier load so it lands exactly on [pc]. *)
          Some (insert_dead f ~block:b ~index:j ~count:(i - j)))
