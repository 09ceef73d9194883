exception Crashed of string

let () =
  Printexc.register_printer (function
    | Crashed why -> Some (Printf.sprintf "Crash.Crashed(%s)" why)
    | _ -> None)

type mode = Clean | Torn

type point = Nothing | Write of { k : int; mode : mode } | Cycle of int

type t = {
  mutable point : point;
  mutable writes : int;
  mutable fired : bool;
}

let none () = { point = Nothing; writes = 0; fired = false }

let after_writes ?(mode = Clean) k =
  if k < 1 then invalid_arg "Crash.after_writes: k < 1";
  { point = Write { k; mode }; writes = 0; fired = false }

let at_cycle c =
  if c < 1 then invalid_arg "Crash.at_cycle: cycle < 1";
  { point = Cycle c; writes = 0; fired = false }

let seeded_after_writes ?mode ~seed ~max_writes () =
  if max_writes < 1 then invalid_arg "Crash.seeded_after_writes: max_writes < 1";
  let rng = Aptget_util.Rng.create seed in
  after_writes ?mode (1 + Aptget_util.Rng.int rng max_writes)

let armed t = (not t.fired) && t.point <> Nothing
let crashed t = t.fired
let writes_seen t = t.writes

let cycle_limit t =
  match t.point with Cycle c -> Some c | Nothing | Write _ -> None

let fire t why =
  t.fired <- true;
  raise (Crashed why)

let guard_write crash ~write bytes =
  match crash with
  | None -> write bytes
  | Some t -> (
    t.writes <- t.writes + 1;
    match t.point with
    | Write { k; mode } when (not t.fired) && t.writes = k -> (
      match mode with
      | Clean ->
        write bytes;
        fire t (Printf.sprintf "killed after store write %d" k)
      | Torn ->
        (* A strict prefix: at least one byte short, so the record can
           never land intact (empty payloads just vanish). *)
        let keep = String.length bytes / 2 in
        if keep > 0 then write (String.sub bytes 0 keep);
        fire t (Printf.sprintf "killed tearing store write %d" k))
    | _ -> write bytes)

let crash_at_cycle t ~cycle =
  fire t (Printf.sprintf "killed at simulated cycle %d" cycle)

let is_crashed = function Crashed _ -> true | _ -> false
