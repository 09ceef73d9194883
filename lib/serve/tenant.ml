module Quarantine = Aptget_core.Quarantine
module Meas_cache = Aptget_core.Meas_cache
module Breaker = Aptget_core.Breaker

type t = {
  id : string;
  dir : string;
  quarantine : Quarantine.t;
  cache : Meas_cache.t option;
  breaker : Breaker.t;
}

type registry = {
  root : string;
  breaker : Breaker.config;
  cache : bool;
  table : (string, t) Hashtbl.t;
  mutex : Mutex.t;
}

let registry ~root ?(breaker = Breaker.default_config) ?(cache = true) () =
  { root; breaker; cache; table = Hashtbl.create 8; mutex = Mutex.create () }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let materialize reg id =
  let dir = Filename.concat (Filename.concat reg.root "tenants") id in
  mkdir_p dir;
  let quarantine =
    Quarantine.create ~path:(Filename.concat dir "quarantine") ()
  in
  let cache =
    if reg.cache then begin
      let cache_dir = Filename.concat dir "cache" in
      mkdir_p cache_dir;
      Some (Meas_cache.create ~dir:cache_dir ~namespace:id ())
    end
    else None
  in
  { id; dir; quarantine; cache; breaker = Breaker.create ~config:reg.breaker () }

let find_or_create reg id =
  match Wire.valid_id id with
  | Error e -> Error ("tenant: " ^ e)
  | Ok () ->
    Mutex.lock reg.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock reg.mutex)
      (fun () ->
        match Hashtbl.find_opt reg.table id with
        | Some t -> Ok t
        | None ->
          let t = materialize reg id in
          Hashtbl.add reg.table id t;
          Ok t)

let known reg =
  Mutex.lock reg.mutex;
  let ts = Hashtbl.fold (fun _ t acc -> t :: acc) reg.table [] in
  Mutex.unlock reg.mutex;
  List.sort (fun a b -> compare a.id b.id) ts
