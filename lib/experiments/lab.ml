module Pipeline = Aptget_core.Pipeline
module Meas_cache = Aptget_core.Meas_cache
module Profiler = Aptget_profile.Profiler
module Workload = Aptget_workloads.Workload
module Suite = Aptget_workloads.Suite
module Micro = Aptget_workloads.Micro
module Machine = Aptget_machine.Machine
module Sampler = Aptget_pmu.Sampler
module Inject = Aptget_passes.Inject
module Pool = Aptget_util.Pool

(* The default-options profiling run of a workload: its measurement,
   the kernel it ran, the sampler that rode along and the profile. The
   run's memory is not kept. *)
type profiled = {
  base : Pipeline.measurement;
  func : Ir.func;
  sampler : Sampler.t;
  prof : Profiler.t;
}

type t = {
  quick : bool;
  memo : Meas_cache.t;
  lock : Mutex.t;
      (* guards the two tables below; simulations run outside it *)
  profiles : (string, profiled) Hashtbl.t;
  reported : (string, Pipeline.measurement) Hashtbl.t;
      (* "<workload>/baseline" and "<workload>/aptget" as first asked
         for or recorded: what [summary] reports *)
}

let create ?(quick = false) ?cache_dir () =
  let dir =
    match cache_dir with Some _ as d -> d | None -> Meas_cache.dir_from_env ()
  in
  {
    quick;
    memo = Meas_cache.create ?dir ();
    lock = Mutex.create ();
    profiles = Hashtbl.create 16;
    reported = Hashtbl.create 64;
  }

let quick t = t.quick

let memo t = t.memo

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

(* First insertion wins, so a recorded synthetic measurement keeps
   its name in [summary]. *)
let report t ~workload ~variant m =
  locked t (fun () ->
      let k = workload ^ "/" ^ variant in
      if not (Hashtbl.mem t.reported k) then Hashtbl.add t.reported k m);
  m

let key ?(config = Machine.default_config) (w : Workload.t) transform =
  Meas_cache.key ~workload:w.Workload.name ~program:(Meas_cache.program w)
    ~config transform

(* Lab runs have no watchdog, so any run of the same config fits. *)
let memoized t ?(config = Machine.default_config) transform w run =
  check (Meas_cache.memoize t.memo (key ~config w transform) ~caps:config run)

let measured t ?config transform w =
  memoized t ?config transform w (fun () -> Pipeline.measured ?config transform w)

let profiled_run t (w : Workload.t) =
  match locked t (fun () -> Hashtbl.find_opt t.profiles w.Workload.name) with
  | Some p -> p
  | None ->
    let r, sampler, prof = Pipeline.profiled_run ~memo:t.memo w in
    let p =
      { base = r.Pipeline.tenant; func = r.Pipeline.instance.Workload.func;
        sampler; prof }
    in
    locked t (fun () ->
        match Hashtbl.find_opt t.profiles w.Workload.name with
        | Some p' -> p'
        | None ->
          Hashtbl.add t.profiles w.Workload.name p;
          p)

let profiled t w = (profiled_run t w).prof

let sampled t w =
  let p = profiled_run t w in
  (check p.base, p.func, p.sampler)

type job =
  | Baseline of Workload.t
  | Aj of { distance : int option; w : Workload.t }
  | Aptget of Workload.t
  | Static of { distance : int; w : Workload.t }
  | Site of { site : Inject.site; w : Workload.t }

let job_workload = function
  | Baseline w | Aj { w; _ } | Aptget w | Static { w; _ } | Site { w; _ } -> w

(* A job's transform; profile-guided ones read the workload's profile. *)
let job_transform t = function
  | Baseline _ -> Meas_cache.Unmodified
  | Aj { distance; _ } ->
    Meas_cache.Aj (Option.value ~default:Aptget_passes.Aj.default_distance distance)
  | Aptget w ->
    Meas_cache.Hints { hints = (profiled t w).Profiler.hints; cse = false }
  | Static { distance; w } ->
    Meas_cache.Hints
      { hints = Pipeline.force_distance distance (profiled t w).Profiler.hints;
        cse = false }
  | Site { site; w } ->
    Meas_cache.Hints
      { hints = Pipeline.force_site site (profiled t w).Profiler.hints;
        cse = false }

(* The profiling run is the baseline of record: a workload's unhinted
   kernel is simulated once, whichever of the two is asked for first.
   A baseline or APT-GET run is reported to [summary] when asked for. *)
let run t j =
  let w = job_workload j in
  match j with
  | Baseline _ ->
    report t ~workload:w.Workload.name ~variant:"baseline"
      (memoized t Meas_cache.Unmodified w (fun () -> (profiled_run t w).base))
  | Aptget _ ->
    report t ~workload:w.Workload.name ~variant:"aptget"
      (measured t (job_transform t j) w)
  | Aj _ | Static _ | Site _ -> measured t (job_transform t j) w

let baseline t w = run t (Baseline w)
let aj t ?distance w = run t (Aj { distance; w })
let aptget t w = run t (Aptget w)
let static_distance t ~distance w = run t (Static { distance; w })
let forced_site t site w = run t (Site { site; w })

let with_hints t ?config ?(cse = false) ~hints w =
  measured t ?config (Meas_cache.Hints { hints; cse }) w

let record t ~workload ~variant m = ignore (report t ~workload ~variant (check m))

(* Derived purely from what was asked for: a workload appears once both
   its baseline and its APT-GET runs have been, so the bench harness
   can snapshot headline numbers without triggering new simulations. *)
let summary t =
  locked t (fun () ->
      Hashtbl.fold
        (fun key m acc ->
          match Filename.chop_suffix_opt ~suffix:"/aptget" key with
          | None -> acc
          | Some name -> (
            match Hashtbl.find_opt t.reported (name ^ "/baseline") with
            | None -> acc
            | Some base ->
              ( name,
                Pipeline.speedup ~baseline:base m,
                Pipeline.mpki_reduction ~baseline:base m )
              :: acc))
        t.reported [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Batched, parallel prewarming                                        *)
(* ------------------------------------------------------------------ *)

(* Fan a batch of independent measurements across domains. Results land
   in the memo, so the subsequent (serial) table/JSON rendering reads
   exactly what a serial run would have computed: each key is measured
   at most once, by a deterministic simulation, and the persistent
   cache stores bit-identical records either way.

   Profiling runs come first, one per workload a job other than A&J
   names. Then every job has a key, and one job per key runs on the
   pool, each worker building its own memory, hierarchy and sampler via
   the pipeline. A last serial pass over all jobs only reads the memo
   and records what each asked for. *)
let run_batch ?jobs t js =
  let distinct key xs =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x ->
        let k = key x in
        (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
      xs
  in
  let profile_first =
    List.filter_map (function Aj _ -> None | j -> Some (job_workload j)) js
    |> distinct (fun (w : Workload.t) -> w.Workload.name)
  in
  ignore (Pool.run ?jobs (fun w -> ignore (profiled_run t w)) profile_first);
  let todo = distinct (fun j -> key (job_workload j) (job_transform t j)) js in
  ignore (Pool.run ?jobs (fun j -> ignore (run t j)) todo);
  List.iter (fun j -> ignore (run t j)) js
