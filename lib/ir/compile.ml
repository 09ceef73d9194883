type phi_moves = {
  pm_dsts : int array;
  pm_preds : int array;
  pm_rows : Ir.operand array array;
}

type block_plan = {
  bp_phis : phi_moves;
  bp_instrs : Ir.instr array;
  bp_term : Ir.terminator;
}

type t = {
  cp_entry : int;
  cp_blocks : block_plan array;
  cp_max_phis : int;
}

let no_phis = { pm_dsts = [||]; pm_preds = [||]; pm_rows = [||] }

(* Flatten a block's phi list into one operand row per predecessor
   that every phi has an edge from. A predecessor missing from some
   phi gets no row; arriving from it raises {!missing_phi_edge}, the
   same error the per-entry list walk used to produce. *)
let phi_moves_of_block (blk : Ir.block) =
  match blk.Ir.phis with
  | [] -> no_phis
  | phis ->
    let preds =
      List.concat_map (fun (p : Ir.phi) -> List.map fst p.Ir.incoming) phis
      |> List.sort_uniq compare
    in
    let rows =
      List.filter_map
        (fun pred ->
          match
            List.map
              (fun (p : Ir.phi) -> List.assoc pred p.Ir.incoming)
              phis
          with
          | ops -> Some (pred, Array.of_list ops)
          | exception Not_found -> None)
        preds
    in
    {
      pm_dsts = Array.of_list (List.map (fun p -> p.Ir.phi_dst) phis);
      pm_preds = Array.of_list (List.map fst rows);
      pm_rows = Array.of_list (List.map snd rows);
    }

let plan (f : Ir.func) =
  let blocks =
    Array.map
      (fun (blk : Ir.block) ->
        {
          bp_phis = phi_moves_of_block blk;
          bp_instrs = blk.Ir.instrs;
          bp_term = blk.Ir.term;
        })
      f.Ir.blocks
  in
  let max_phis =
    Array.fold_left
      (fun m bp -> max m (Array.length bp.bp_phis.pm_dsts))
      0 blocks
  in
  { cp_entry = f.Ir.entry; cp_blocks = blocks; cp_max_phis = max_phis }

let[@inline] phi_row pm prev =
  let preds = pm.pm_preds in
  let n = Array.length preds in
  let row = ref (-1) in
  let i = ref 0 in
  while !row < 0 && !i < n do
    if Array.unsafe_get preds !i = prev then row := !i;
    incr i
  done;
  !row

(* Cold path: report the first phi (in program order) with no edge from
   [prev] — byte-identical to the message the per-entry walk raised. *)
let missing_phi_edge (f : Ir.func) ~cur ~prev =
  let p =
    List.find
      (fun (p : Ir.phi) -> not (List.mem_assoc prev p.Ir.incoming))
      f.Ir.blocks.(cur).Ir.phis
  in
  invalid_arg
    (Printf.sprintf "Machine: phi %%%d in b%d has no edge from b%d"
       p.Ir.phi_dst cur prev)
