type step = Step_add of int | Step_mul of int | Step_other

type indvar = {
  iv_reg : Ir.reg;
  init : Ir.operand;
  step : step;
  update_reg : Ir.reg;
  bound : Ir.operand option;
}

type loop = {
  header : Ir.label;
  latch : Ir.label;
  blocks : Ir.label list;
  preheader : Ir.label option;
  depth : int;
  parent : int option;
  indvar : indvar option;
  latch_pc : int;
  header_pc : int;
}

module Iset = Set.Make (Int)

let natural_loop cfg ~header ~latch =
  let body = ref (Iset.singleton header) in
  let stack = ref [ latch ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | b :: rest ->
      stack := rest;
      if not (Iset.mem b !body) then begin
        body := Iset.add b !body;
        List.iter (fun p -> stack := p :: !stack) (Cfg.preds cfg b)
      end
  done;
  !body

(* Recognise iv' = f(iv). *)
let classify_step (f : Ir.func) (defs : Defs.t) ~iv_reg ~update_reg =
  match Defs.find defs update_reg with
  | Some (Defs.Instr (bi, ii)) -> (
    let i = Defs.instr f bi ii in
    match i.Ir.kind with
    | Ir.Binop (Ir.Add, Ir.Reg r, Ir.Imm c) when r = iv_reg -> Step_add c
    | Ir.Binop (Ir.Add, Ir.Imm c, Ir.Reg r) when r = iv_reg -> Step_add c
    | Ir.Binop (Ir.Sub, Ir.Reg r, Ir.Imm c) when r = iv_reg -> Step_add (-c)
    | Ir.Binop (Ir.Mul, Ir.Reg r, Ir.Imm c) when r = iv_reg -> Step_mul c
    | Ir.Binop (Ir.Mul, Ir.Imm c, Ir.Reg r) when r = iv_reg -> Step_mul c
    | Ir.Binop (Ir.Shl, Ir.Reg r, Ir.Imm c) when r = iv_reg -> Step_mul (1 lsl c)
    | _ -> Step_other)
  | _ -> Step_other

(* Find the loop bound from the header's exit branch: a comparison
   involving the induction phi (or its update register). *)
let find_bound (f : Ir.func) (defs : Defs.t) ~header ~iv_reg ~update_reg =
  let blk = f.Ir.blocks.(header) in
  match blk.Ir.term with
  | Ir.Br (Ir.Reg c, _, _) -> (
    match Defs.find defs c with
    | Some (Defs.Instr (bi, ii)) -> (
      let i = Defs.instr f bi ii in
      match i.Ir.kind with
      | Ir.Cmp ((Ir.Lt | Ir.Le), Ir.Reg r, bound)
        when r = iv_reg || r = update_reg ->
        Some bound
      | Ir.Cmp ((Ir.Gt | Ir.Ge), bound, Ir.Reg r)
        when r = iv_reg || r = update_reg ->
        Some bound
      | _ -> None)
    | _ -> None)
  | _ -> None

let find_indvar (f : Ir.func) (defs : Defs.t) ~header ~latch =
  let blk = f.Ir.blocks.(header) in
  let candidates =
    List.filter_map
      (fun (p : Ir.phi) ->
        match p.Ir.incoming with
        | [ (l1, v1); (l2, v2) ] ->
          let from_latch, init =
            if l1 = latch then (Some v1, v2)
            else if l2 = latch then (Some v2, v1)
            else (None, v1)
          in
          (match from_latch with
          | Some (Ir.Reg update_reg) ->
            let step = classify_step f defs ~iv_reg:p.Ir.phi_dst ~update_reg in
            let bound = find_bound f defs ~header ~iv_reg:p.Ir.phi_dst ~update_reg in
            Some { iv_reg = p.Ir.phi_dst; init; step; update_reg; bound }
          | _ -> None)
        | _ -> None)
      blk.Ir.phis
  in
  (* Prefer a phi with a recognised step and a bound. *)
  let score v =
    (match v.step with Step_other -> 0 | _ -> 2)
    + match v.bound with Some _ -> 1 | None -> 0
  in
  match List.sort (fun a b -> compare (score b) (score a)) candidates with
  | [] -> None
  | best :: _ -> Some best

let analyze (f : Ir.func) =
  let cfg = Cfg.build f in
  let defs = Defs.build f in
  let n = Array.length f.Ir.blocks in
  (* Back edges. *)
  let back_edges = ref [] in
  for u = 0 to n - 1 do
    if Cfg.reachable cfg u then
      List.iter
        (fun h -> if Cfg.dominates cfg h u then back_edges := (u, h) :: !back_edges)
        (Cfg.succs cfg u)
  done;
  (* Group by header, merging bodies. *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let body = natural_loop cfg ~header ~latch in
      match Hashtbl.find_opt tbl header with
      | None -> Hashtbl.add tbl header (latch, body)
      | Some (l0, b0) -> Hashtbl.replace tbl header (max l0 latch, Iset.union b0 body))
    !back_edges;
  let raw =
    Hashtbl.fold (fun header (latch, body) acc -> (header, latch, body) :: acc) tbl []
  in
  (* Nesting. *)
  let contains (_, _, body_a) (header_b, _, _) = Iset.mem header_b body_a in
  let raw = Array.of_list raw in
  let n_loops = Array.length raw in
  let depth = Array.make n_loops 1 in
  let parent = Array.make n_loops None in
  for i = 0 to n_loops - 1 do
    let (header_i, _, _) = raw.(i) in
    ignore header_i;
    let best = ref None in
    for j = 0 to n_loops - 1 do
      if i <> j && contains raw.(j) raw.(i) then begin
        let (_, _, body_j) = raw.(j) in
        match !best with
        | None -> best := Some (j, Iset.cardinal body_j)
        | Some (_, card) ->
          if Iset.cardinal body_j < card then best := Some (j, Iset.cardinal body_j)
      end
    done;
    (match !best with
    | Some (j, _) -> parent.(i) <- Some j
    | None -> ());
    let d = ref 1 in
    for j = 0 to n_loops - 1 do
      if i <> j && contains raw.(j) raw.(i) then incr d
    done;
    depth.(i) <- !d
  done;
  let order = Array.init n_loops (fun i -> i) in
  Array.sort (fun a b -> compare depth.(a) depth.(b)) order;
  (* Remap parent indices through the sort. *)
  let new_index = Array.make n_loops 0 in
  Array.iteri (fun pos old -> new_index.(old) <- pos) order;
  Array.map
    (fun old ->
      let header, latch, body = raw.(old) in
      let body_list = Iset.elements body in
      let outside_preds =
        List.filter (fun p -> not (Iset.mem p body)) (Cfg.preds cfg header)
      in
      let preheader = match outside_preds with [ p ] -> Some p | _ -> None in
      {
        header;
        latch;
        blocks = body_list;
        preheader;
        depth = depth.(old);
        parent = Option.map (fun j -> new_index.(j)) parent.(old);
        indvar = find_indvar f defs ~header ~latch;
        latch_pc = Layout.pc_of_term latch;
        header_pc = Layout.pc_of_term header;
      })
    order

let loop_containing loops label =
  let best = ref None in
  Array.iteri
    (fun i l ->
      if List.mem label l.blocks then
        match !best with
        | None -> best := Some (i, l.depth)
        | Some (_, d) -> if l.depth > d then best := Some (i, l.depth))
    loops;
  Option.map fst !best

let loop_of_latch_pc loops pc =
  let found = ref None in
  Array.iteri (fun i l -> if l.latch_pc = pc then found := Some i) loops;
  !found
