module Aptget_pass = Aptget_passes.Aptget_pass

type config = { accept : float; min_confidence : float }

let default_config = { accept = 0.85; min_confidence = 0.55 }

type decision =
  | Kept
  | Remapped of { pc : int; confidence : float }
  | Rescaled of { pc : int; confidence : float; distance : int }
  | Dropped of string

let decision_to_string = function
  | Kept -> "kept"
  | Remapped r -> Printf.sprintf "remapped to pc=%d (%.2f)" r.pc r.confidence
  | Rescaled r ->
    Printf.sprintf "rescaled to pc=%d distance=%d (%.2f)" r.pc r.distance
      r.confidence
  | Dropped why -> "dropped: " ^ why

type t = {
  hints : Aptget_pass.hint list;
  report : (Aptget_pass.hint * decision) list;
  kept : int;
  remapped : int;
  rescaled : int;
  dropped : int;
}

let render_summary r =
  Printf.sprintf "remap: %d kept, %d remapped, %d rescaled, %d dropped\n"
    r.kept r.remapped r.rescaled r.dropped

let current_fp_at (current : Fingerprint.t) pc =
  List.find_opt
    (fun (l : Fingerprint.load_fp) -> l.Fingerprint.lf_pc = pc)
    current.Fingerprint.loads

(* First pass: an independent decision per hint. *)
let decide config current (e : Hints_file.entry) =
  let h = e.Hints_file.e_hint in
  let here = current_fp_at current h.Aptget_pass.load_pc in
  match (here, e.Hints_file.e_fp) with
  | Some cur, Some fp
    when Fingerprint.similarity cur fp >= config.accept ->
    Kept
  | Some _, None ->
    (* Legacy v1 hint: the PC still addresses a load and there is no
       fingerprint to second-guess it with. *)
    Kept
  | _, Some fp -> (
    match Fingerprint.best_match current fp with
    | None -> Dropped "program has no loads"
    | Some (m, c) ->
      if c >= config.accept then
        Remapped { pc = m.Fingerprint.lf_pc; confidence = c }
      else if c >= config.min_confidence then
        Rescaled
          {
            pc = m.Fingerprint.lf_pc;
            confidence = c;
            distance =
              max 1
                (int_of_float
                   (Float.round (float_of_int h.Aptget_pass.distance *. c)));
          }
      else
        Dropped
          (Printf.sprintf "best fingerprint match pc=%d scored %.2f (< %.2f)"
             m.Fingerprint.lf_pc c config.min_confidence))
  | None, None -> Dropped "stale PC and no fingerprint to remap by"

let target_of (h : Aptget_pass.hint) = function
  | Kept -> Some (h.Aptget_pass.load_pc, 1.0)
  | Remapped r -> Some (r.pc, r.confidence)
  | Rescaled r -> Some (r.pc, r.confidence)
  | Dropped _ -> None

(* Second pass: two stale hints can converge on the same current load;
   keep the more confident one (ties: the first in input order). *)
let dedup decided =
  let best : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (h, d) ->
      match target_of h d with
      | None -> ()
      | Some (pc, c) -> (
        match Hashtbl.find_opt best pc with
        | Some c' when c' >= c -> ()
        | _ -> Hashtbl.replace best pc c))
    decided;
  let claimed : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.map
    (fun (h, d) ->
      match target_of h d with
      | None -> (h, d)
      | Some (pc, c) ->
        if (not (Hashtbl.mem claimed pc)) && Hashtbl.find best pc = c then begin
          Hashtbl.replace claimed pc ();
          (h, d)
        end
        else
          ( h,
            Dropped
              (Printf.sprintf
                 "another hint claims target pc=%d with higher confidence" pc)
          ))
    decided

let apply (h : Aptget_pass.hint) = function
  | Kept -> Some h
  | Remapped r -> Some { h with Aptget_pass.load_pc = r.pc }
  | Rescaled r ->
    Some { h with Aptget_pass.load_pc = r.pc; distance = r.distance }
  | Dropped _ -> None

let run ?(config = default_config) ~current (doc : Hints_file.doc) =
  let report =
    doc.Hints_file.entries
    |> List.map (fun e -> (e.Hints_file.e_hint, decide config current e))
    |> dedup
  in
  let hints = List.filter_map (fun (h, d) -> apply h d) report in
  let count p = List.length (List.filter (fun (_, d) -> p d) report) in
  {
    hints;
    report;
    kept = count (function Kept -> true | _ -> false);
    remapped = count (function Remapped _ -> true | _ -> false);
    rescaled = count (function Rescaled _ -> true | _ -> false);
    dropped = count (function Dropped _ -> true | _ -> false);
  }
