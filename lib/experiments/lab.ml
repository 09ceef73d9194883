module Pipeline = Aptget_core.Pipeline
module Meas_cache = Aptget_core.Meas_cache
module Profiler = Aptget_profile.Profiler
module Workload = Aptget_workloads.Workload
module Suite = Aptget_workloads.Suite
module Micro = Aptget_workloads.Micro
module Inject = Aptget_passes.Inject
module Machine = Aptget_machine.Machine
module Pool = Aptget_util.Pool
module Fingerprint = Aptget_ir.Fingerprint

type t = {
  quick : bool;
  lock : Mutex.t;
      (* guards the three tables below; simulations run outside it *)
  measurements : (string, Pipeline.measurement) Hashtbl.t;
  profiles : (string, Pipeline.measurement * Profiler.t) Hashtbl.t;
      (* workload -> its profiling run and profile *)
  programs : (string, int) Hashtbl.t; (* workload -> program fingerprint *)
  cache_dir : string option;
}

let create ?(quick = false) ?cache_dir () =
  let cache_dir =
    match cache_dir with Some _ as d -> d | None -> Meas_cache.dir_from_env ()
  in
  {
    quick;
    lock = Mutex.create ();
    measurements = Hashtbl.create 64;
    profiles = Hashtbl.create 16;
    programs = Hashtbl.create 16;
    cache_dir;
  }

let quick t = t.quick

let suite t =
  if not t.quick then Suite.default
  else
    [
      Suite.bfs ~name:"BFS-20K8"
        ~graph:(fun () -> Aptget_graph.Datasets.synthetic ~nodes:20_000 ~degree:8 ())
        ~input:"20K-d8";
      Aptget_workloads.Is.workload
        ~params:
          {
            Aptget_workloads.Is.n_keys = 65_536;
            key_range = 262_144;
            iterations = 1;
            seed = 11;
          }
        ~name:"IS-quick" ();
      Aptget_workloads.Hashjoin.workload
        ~params:
          {
            Aptget_workloads.Hashjoin.hj2_params with
            Aptget_workloads.Hashjoin.n_build = 65_536;
            n_probe = 32_768;
            n_buckets = 1 lsl 16;
          }
        ~name:"HJ2-quick" ();
      Aptget_workloads.Randacc.workload
        ~params:
          { Aptget_workloads.Randacc.table_words = 1 lsl 20;
            updates = 65_536;
            seed = 31;
          }
        ~name:"randAcc-quick" ();
    ]

let nested_suite t = List.filter (fun w -> w.Workload.nested) (suite t)

let micro_params t =
  if t.quick then
    { Micro.default_params with Micro.total = 32_768; table_words = 1 lsl 20 }
  else { Micro.default_params with Micro.total = 131_072; table_words = 1 lsl 22 }

let check (m : Pipeline.measurement) = Pipeline.verified_exn m

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find_memo t key = locked t (fun () -> Hashtbl.find_opt t.measurements key)

(* First insertion wins so concurrent duplicate computations (possible
   only for callers bypassing [run_batch]'s dedup) converge on one
   record. The simulator is deterministic, so the loser computed the
   same numbers anyway. *)
let add_memo t key m =
  locked t (fun () ->
      match Hashtbl.find_opt t.measurements key with
      | Some m' -> m'
      | None ->
        Hashtbl.add t.measurements key m;
        m)

let program t (w : Workload.t) =
  match locked t (fun () -> Hashtbl.find_opt t.programs w.Workload.name) with
  | Some p -> p
  | None ->
    let p =
      (Fingerprint.fingerprint (w.Workload.build ()).Workload.func)
        .Fingerprint.program
    in
    locked t (fun () ->
        match Hashtbl.find_opt t.programs w.Workload.name with
        | Some p' -> p'
        | None ->
          Hashtbl.add t.programs w.Workload.name p;
          p)

(* Lab runs always use the default machine config and default profiler
   options, so those key components are constants here. *)
let profile_options = Profiler.options_summary Profiler.default_options

let cache_key t ~variant ~options (w : Workload.t) =
  Meas_cache.key ~variant ~workload:w.Workload.name ~program:(program t w)
    ~config:Machine.default_config ~options ()

let disk_load t ~variant ~options w =
  match t.cache_dir with
  | None -> None
  | Some dir -> Meas_cache.load ~dir (cache_key t ~variant ~options w)

let disk_store t ~variant ~options w m =
  match t.cache_dir with
  | None -> ()
  | Some dir -> Meas_cache.store ~dir (cache_key t ~variant ~options w) m

(* Memo key is "<workload>/<variant>" — the same [variant] string feeds
   the persistent cache key. *)
let memo t ~variant ?(options = "") (w : Workload.t) f =
  let key = w.Workload.name ^ "/" ^ variant in
  match find_memo t key with
  | Some m -> m
  | None ->
    let m =
      match disk_load t ~variant ~options w with
      | Some m -> check m
      | None ->
        let m = check (f ()) in
        disk_store t ~variant ~options w m;
        m
    in
    add_memo t key m

let aj t ?distance w =
  let d = Option.value ~default:Aptget_passes.Aj.default_distance distance in
  memo t ~variant:(Printf.sprintf "aj-%d" d) w (fun () ->
      Pipeline.aj ~distance:d w)

let profiled_run t (w : Workload.t) =
  match locked t (fun () -> Hashtbl.find_opt t.profiles w.Workload.name) with
  | Some r -> r
  | None ->
    let r = Pipeline.profiled w in
    locked t (fun () ->
        match Hashtbl.find_opt t.profiles w.Workload.name with
        | Some r' -> r'
        | None ->
          Hashtbl.add t.profiles w.Workload.name r;
          r)

let profiled t w = snd (profiled_run t w)

(* The profiling run is the baseline of record: a workload's unhinted
   kernel is simulated once, whichever of the two is asked for first.
   The memo entry is still made only on request, so [summary] lists
   exactly the workloads whose baseline something asked for. *)
let baseline t w = memo t ~variant:"baseline" w (fun () -> fst (profiled_run t w))

let aptget t w =
  memo t ~variant:"aptget" ~options:profile_options w (fun () ->
      let prof = profiled t w in
      Pipeline.with_hints ~hints:prof.Profiler.hints w)

let static_distance t ~distance w =
  memo t
    ~variant:(Printf.sprintf "static-%d" distance)
    ~options:profile_options w
    (fun () ->
      let prof = profiled t w in
      Pipeline.with_hints
        ~hints:(Pipeline.force_distance distance prof.Profiler.hints)
        w)

let forced_site t site w =
  memo t
    ~variant:(Printf.sprintf "site-%s" (Inject.site_to_string site))
    ~options:profile_options w
    (fun () ->
      let prof = profiled t w in
      Pipeline.with_hints ~hints:(Pipeline.force_site site prof.Profiler.hints) w)

(* Externally computed measurements (e.g. the adaptive experiment's
   summed online/one-shot arms) enter the memo tables here so [summary]
   can surface them; they stay out of the persistent cache, whose keys
   describe single pipeline runs. *)
let record t ~workload ~variant m =
  ignore (add_memo t (workload ^ "/" ^ variant) (check m))

(* Derived purely from the memo caches: a workload appears once both
   its baseline and its APT-GET runs have been measured, so the bench
   harness can snapshot headline numbers without triggering new
   simulations. *)
let summary t =
  locked t (fun () ->
      Hashtbl.fold
        (fun key m acc ->
          match Filename.chop_suffix_opt ~suffix:"/aptget" key with
          | None -> acc
          | Some name -> (
            match Hashtbl.find_opt t.measurements (name ^ "/baseline") with
            | None -> acc
            | Some base ->
              ( name,
                Pipeline.speedup ~baseline:base m,
                Pipeline.mpki_reduction ~baseline:base m )
              :: acc))
        t.measurements [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Batched, parallel prewarming                                        *)
(* ------------------------------------------------------------------ *)

type job =
  | Baseline of Workload.t
  | Aj of { distance : int option; w : Workload.t }
  | Aptget of Workload.t
  | Static of { distance : int; w : Workload.t }
  | Site of { site : Inject.site; w : Workload.t }

let job_workload = function
  | Baseline w | Aj { w; _ } | Aptget w | Static { w; _ } | Site { w; _ } -> w

let job_variant = function
  | Baseline _ -> "baseline"
  | Aj { distance; _ } ->
    Printf.sprintf "aj-%d"
      (Option.value ~default:Aptget_passes.Aj.default_distance distance)
  | Aptget _ -> "aptget"
  | Static { distance; _ } -> Printf.sprintf "static-%d" distance
  | Site { site; _ } -> "site-" ^ Inject.site_to_string site

let job_options = function
  | Baseline _ | Aj _ -> ""
  | Aptget _ | Static _ | Site _ -> profile_options

let job_needs_profile = function
  | Aj _ -> false
  | Baseline _ | Aptget _ | Static _ | Site _ -> true

let run_job t = function
  | Baseline w -> ignore (baseline t w)
  | Aj { distance; w } -> ignore (aj t ?distance w)
  | Aptget w -> ignore (aptget t w)
  | Static { distance; w } -> ignore (static_distance t ~distance w)
  | Site { site; w } -> ignore (forced_site t site w)

(* Fan a batch of independent measurements across domains. Results land
   in the memo tables, so the subsequent (serial) table/JSON rendering
   reads exactly what a serial run would have computed: each memo key
   is measured at most once, by a deterministic simulation, and the
   persistent cache stores bit-identical records either way.

   Two stages keep the workers from racing on shared inputs: profiling
   runs (one per workload that a baseline or profile-guided job needs
   and neither the memo nor the persistent cache can supply) come
   first, then the measurements — each worker building its own memory,
   hierarchy and sampler via the pipeline. *)
let run_batch ?jobs t js =
  let seen = Hashtbl.create 16 in
  let todo =
    List.filter
      (fun j ->
        let key = (job_workload j).Workload.name ^ "/" ^ job_variant j in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          find_memo t key = None
        end)
      js
  in
  (* Preload persistent-cache hits so stage sizing below reflects only
     real simulation work. *)
  let todo =
    List.filter
      (fun j ->
        match
          disk_load t ~variant:(job_variant j) ~options:(job_options j)
            (job_workload j)
        with
        | Some m ->
          let key = (job_workload j).Workload.name ^ "/" ^ job_variant j in
          ignore (add_memo t key (check m));
          false
        | None -> true)
      todo
  in
  let profile_needed =
    let names = Hashtbl.create 8 in
    List.filter_map
      (fun j ->
        let w = job_workload j in
        if
          job_needs_profile j
          && (not (Hashtbl.mem names w.Workload.name))
          && locked t (fun () ->
                 not (Hashtbl.mem t.profiles w.Workload.name))
        then begin
          Hashtbl.add names w.Workload.name ();
          Some w
        end
        else None)
      todo
  in
  ignore (Pool.run ?jobs (fun w -> ignore (profiled_run t w)) profile_needed);
  ignore (Pool.run ?jobs (fun j -> run_job t j) todo)
