module Machine = Aptget_machine.Machine
module Hierarchy = Aptget_cache.Hierarchy
module Inject = Aptget_passes.Inject
module Aptget_pass = Aptget_passes.Aptget_pass
module Workload = Aptget_workloads.Workload
module Atomic_file = Aptget_store.Atomic_file
module Crc32 = Aptget_store.Crc32
module Metrics = Aptget_obs.Metrics

type measurement = {
  workload : string;
  outcome : Machine.outcome;
  verified : (unit, string) result;
  injected : Inject.injected list;
  skipped : (int * string) list;
  wall_seconds : float;
}

type transform =
  | Unmodified
  | Aj of int
  | Hints of { hints : Aptget_pass.hint list; cse : bool }

(* ------------------------------------------------------------------ *)
(* What runs: one program identity per workload record.               *)
(* ------------------------------------------------------------------ *)

type program = { fingerprint : Fingerprint.t; digest : string }

(* The printed IR names every operand; the arguments carry the sizes
   and addresses a kernel of the same text runs over. *)
let digest_of (i : Workload.instance) =
  Digest.to_hex
    (Digest.string
       (Printer.func_to_string i.Workload.func
       ^ "args "
       ^ String.concat " " (List.map string_of_int i.Workload.args)))

(* One entry per workload name. An entry answers only while the caller
   holds the very record it was taken from: build is deterministic, so
   the program is then that of a fresh build. The record is held
   weakly, so the table never keeps a dropped record's memory image
   alive. Callers run on pool domains, so every access holds the lock;
   two domains missing together both build and store the same value. *)
let programs : (string, Workload.t Weak.t * program) Hashtbl.t =
  Hashtbl.create 16

let programs_lock = Mutex.create ()

let program (w : Workload.t) =
  let known =
    Mutex.protect programs_lock (fun () ->
        match Hashtbl.find_opt programs w.Workload.name with
        | Some (r, p) when Option.fold ~none:false ~some:(( == ) w) (Weak.get r 0)
          ->
          Some p
        | _ -> None)
  in
  match known with
  | Some p -> p
  | None ->
    let inst = w.Workload.build () in
    let p =
      { fingerprint = Fingerprint.fingerprint inst.Workload.func;
        digest = digest_of inst }
    in
    let r = Weak.create 1 in
    Weak.set r 0 (Some w);
    Mutex.protect programs_lock (fun () ->
        Hashtbl.replace programs w.Workload.name (r, p));
    p

let shipped w ~text func =
  {
    fingerprint = Fingerprint.fingerprint func;
    digest = Digest.to_hex (Digest.string ((program w).digest ^ text));
  }

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

(* A key is a string: every field that determines a deterministic
   simulation's result, '|'-separated. The machine config and the
   transform enter as a digest of their marshalled values, so every
   field of either is in the key, a field added later included.
   Collisions in the filename hash are caught by comparing the stored
   key on load. *)
type key = string

let key_of ~workload ~digest ~config transform =
  String.concat "|"
    [
      workload;
      digest;
      Digest.to_hex
        (Digest.string (Marshal.to_string (config, transform) [ Marshal.No_sharing ]));
    ]

let key ~workload ~program ~config transform =
  key_of ~workload ~digest:program.digest ~config transform

(* The run of an instance as it stands is the unmodified run of its
   (already rewritten) program: the key of a transform that leaves the
   printed IR unchanged is the baseline's own. *)
let rewritten ~workload ~config inst =
  key_of ~workload ~digest:(digest_of inst) ~config Unmodified

let path_of ~dir k = Filename.concat dir ("m-" ^ Crc32.hex (Crc32.string k) ^ ".meas")

(* ------------------------------------------------------------------ *)
(* Record rendering                                                    *)
(* ------------------------------------------------------------------ *)

let magic = "aptget-meas v1"

let render_counters (c : Hierarchy.counters) =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d"
    c.Hierarchy.demand_loads c.Hierarchy.hits_l1 c.Hierarchy.hits_l2
    c.Hierarchy.hits_llc c.Hierarchy.dram_fills_demand
    c.Hierarchy.load_hit_pre_sw_pf c.Hierarchy.offcore_all_data_rd
    c.Hierarchy.offcore_demand_data_rd c.Hierarchy.sw_prefetch_issued
    c.Hierarchy.sw_prefetch_useless c.Hierarchy.sw_prefetch_dropped
    c.Hierarchy.hw_prefetch_issued c.Hierarchy.stall_cycles_l2
    c.Hierarchy.stall_cycles_llc c.Hierarchy.stall_cycles_dram
    c.Hierarchy.sw_prefetch_early_evict

let render (k : key) (m : measurement) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%s" magic;
  line "key %s" (String.escaped k);
  line "workload %s" (String.escaped m.workload);
  let o = m.outcome in
  line "outcome %d %d %d %d %s" o.Machine.cycles o.Machine.instructions
    o.Machine.dyn_loads o.Machine.dyn_prefetches
    (match o.Machine.ret with None -> "none" | Some r -> string_of_int r);
  line "counters %s" (render_counters o.Machine.counters);
  (match m.verified with
  | Ok () -> line "verified ok"
  | Error e -> line "verified error %s" (String.escaped e));
  List.iter
    (fun (i : Inject.injected) ->
      line "inj %d %d %s %d %d" i.Inject.spec.Inject.load_pc
        i.Inject.spec.Inject.distance
        (Inject.site_to_string i.Inject.spec.Inject.site)
        i.Inject.spec.Inject.sweep i.Inject.cloned_instrs)
    m.injected;
  List.iter
    (fun (pc, why) -> line "skip %d %s" pc (String.escaped why))
    m.skipped;
  (* %h round-trips the float exactly through [float_of_string]. *)
  line "wall %h" m.wall_seconds;
  let body = Buffer.contents b in
  body ^ Printf.sprintf "crc %s\n" (Crc32.hex (Crc32.string body))

(* ------------------------------------------------------------------ *)
(* Record parsing — any defect is a miss, never an exception.          *)
(* ------------------------------------------------------------------ *)

exception Bad

let unescape s = Scanf.unescaped s

(* Split off the first word; the rest (after one space) is the payload. *)
let cut line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let parse (k : key) (text : string) : measurement option =
  try
    (* Checksum first: everything up to the final "crc " line. *)
    let crc_at =
      match String.rindex_opt (String.trim text) '\n' with
      | None -> raise Bad
      | Some i -> i + 1
    in
    let body = String.sub text 0 crc_at in
    let crc_line = String.trim (String.sub text crc_at (String.length text - crc_at)) in
    (match cut crc_line with
    | "crc", h when Crc32.of_hex h = Some (Crc32.string body) -> ()
    | _ -> raise Bad);
    let lines = String.split_on_char '\n' (String.trim body) in
    let workload = ref "" and outcome = ref None and counters = ref None in
    let verified = ref None and wall = ref None in
    let injected = ref [] and skipped = ref [] in
    List.iteri
      (fun i line ->
        if i = 0 then (if line <> magic then raise Bad)
        else
          match cut line with
          | "key", payload -> if unescape payload <> k then raise Bad
          | "workload", payload -> workload := unescape payload
          | "outcome", payload ->
            outcome :=
              Scanf.sscanf payload "%d %d %d %d %s%!" (fun cy ins dl dp ret ->
                  let ret = if ret = "none" then None else Some (int_of_string ret) in
                  Some (cy, ins, dl, dp, ret))
          | "counters", payload ->
            (* 16 ints; older 15-int records fail here and become cache
               misses, which is the safe outcome. *)
            counters :=
              Scanf.sscanf payload "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d%!"
                (fun a b c d e f g h i j k l m n o p ->
                  Some
                    {
                      Hierarchy.demand_loads = a;
                      hits_l1 = b;
                      hits_l2 = c;
                      hits_llc = d;
                      dram_fills_demand = e;
                      load_hit_pre_sw_pf = f;
                      offcore_all_data_rd = g;
                      offcore_demand_data_rd = h;
                      sw_prefetch_issued = i;
                      sw_prefetch_useless = j;
                      sw_prefetch_dropped = k;
                      hw_prefetch_issued = l;
                      stall_cycles_l2 = m;
                      stall_cycles_llc = n;
                      stall_cycles_dram = o;
                      sw_prefetch_early_evict = p;
                    })
          | "verified", "ok" -> verified := Some (Ok ())
          | "verified", payload -> (
            match cut payload with
            | "error", msg -> verified := Some (Error (unescape msg))
            | _ -> raise Bad)
          | "inj", payload ->
            Scanf.sscanf payload "%d %d %s %d %d%!"
              (fun load_pc distance site sweep cloned_instrs ->
                let site =
                  match site with
                  | "inner" -> Inject.Inner
                  | "outer" -> Inject.Outer
                  | _ -> raise Bad
                in
                let spec = { Inject.load_pc; distance; site; sweep } in
                injected := { Inject.spec; cloned_instrs } :: !injected)
          | "skip", payload -> (
            match cut payload with
            | pc, why -> skipped := (int_of_string pc, unescape why) :: !skipped)
          | "wall", payload -> wall := Some (float_of_string payload)
          | _ -> raise Bad)
      lines;
    match (!outcome, !counters, !verified, !wall) with
    | Some (cycles, instructions, dyn_loads, dyn_prefetches, ret), Some c,
      Some verified, Some wall_seconds ->
      Some
        {
          workload = !workload;
          outcome =
            {
              Machine.cycles;
              instructions;
              dyn_loads;
              dyn_prefetches;
              ret;
              counters = c;
            };
          verified;
          injected = List.rev !injected;
          skipped = List.rev !skipped;
          wall_seconds;
        }
    | _ -> raise Bad
  with _ -> None

let load ~dir k =
  match Atomic_file.read ~path:(path_of ~dir k) with
  | Error _ ->
    Metrics.incr "meas_cache.miss";
    None
  | Ok text -> (
    match parse k text with
    | Some m ->
      Metrics.incr "meas_cache.hit";
      Some m
    | None ->
      (* Unreadable, checksum-failed or mismatched record: distinguish
         corruption from a plain absent-file miss in the counters. *)
      Metrics.incr "meas_cache.corrupt";
      Metrics.incr "meas_cache.miss";
      None)

let store ~dir k m =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    Atomic_file.write ~path:(path_of ~dir k) (render k m);
    Metrics.incr "meas_cache.store"
  with _ -> ()

(* ------------------------------------------------------------------ *)
(* The memo: an in-process table in front of an optional directory.   *)
(* ------------------------------------------------------------------ *)

type t = {
  dir : string option;
  namespace : string;
  lock : Mutex.t;  (* guards the tables; simulations run outside it *)
  table : (key, measurement) Hashtbl.t;
  answered : (key, measurement) Hashtbl.t;  (* what [memoize] returned *)
}

let create ?dir ?(namespace = "") () =
  {
    dir;
    namespace;
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    answered = Hashtbl.create 16;
  }

(* The on-disk key also carries the record version and the namespace,
   so two tenants sharing a directory never read each other's records. *)
let disk_key t k = String.concat "|" [ "v3"; t.namespace; k ]

(* First insertion wins, so concurrent duplicate computations converge
   on one record; the loser computed the same numbers anyway. *)
let insert t k m =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some m' -> (m', false)
      | None ->
        Hashtbl.add t.table k m;
        (m, true))

let lookup t k =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table k) with
  | Some _ as m -> m
  | None ->
    Option.bind t.dir (fun dir ->
        Option.map (fun m -> fst (insert t k m)) (load ~dir (disk_key t k)))

let keep t k m =
  let m, fresh = insert t k m in
  if fresh then Option.iter (fun dir -> store ~dir (disk_key t k) m) t.dir;
  m

let add t k m = ignore (keep t k m)

(* A stored run stands for the caller's only if the caller's caps could
   not have stopped it: within their cycle and instruction limits. *)
let fits (caps : Machine.config) m =
  (caps.Machine.max_cycles = 0 || m.outcome.Machine.cycles <= caps.Machine.max_cycles)
  && m.outcome.Machine.instructions <= caps.Machine.max_instructions

let find t k ~caps = Option.bind (lookup t k) (fun m -> if fits caps m then Some m else None)

let memoize t k ~caps run =
  let m = match find t k ~caps with Some m -> m | None -> keep t k (run ()) in
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.answered k m);
  m

let answered t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) t.answered [])

let dir_from_env () =
  match Sys.getenv_opt "APTGET_CACHE" with
  | Some d when String.trim d <> "" -> Some d
  | _ -> None
