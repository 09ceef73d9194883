(* Domain pool. One shared FIFO of closures guarded by a mutex and a
   condition variable; workers block on the condvar, the caller helps
   drain its own batch so [jobs] bounds total concurrency (not
   concurrency-plus-one). Determinism comes from keying results by
   submission index: slot [i] of the result array belongs to input [i]
   no matter which domain computes it or when it finishes. *)

type task = unit -> unit

type t = {
  n_jobs : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  work : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let override = Atomic.make None

let set_default_jobs j = Atomic.set override j

type monitor = {
  on_task : wait_s:float -> run_s:float -> helper:bool -> unit;
  on_batch : queued:int -> jobs:int -> unit;
}

(* Observation hook installed by the obs layer (which sits above this
   library in the dependency graph, hence the indirection). [None] by
   default: the queued path then takes no timestamps at all. *)
let monitor : monitor option Atomic.t = Atomic.make None

let set_monitor m = Atomic.set monitor m

let clamp_jobs j = if j < 1 then 1 else if j > 64 then 64 else j

(* Simulation domains. [busy] counts pool tasks running now; a domain
   outside any batch counts as one. [helpers] counts the helper domains
   {!spawn_helper} has running. Both count against the domain budget:
   [APTGET_JOBS], else the host's core count. The [--jobs] override
   sets only how wide a pool fans out. *)
let busy = Atomic.make 0
let helpers = Atomic.make 0
let started = Atomic.make 0

let domain_budget () =
  match Sys.getenv_opt "APTGET_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> clamp_jobs j
    | Some _ | None -> 1)
  | None -> clamp_jobs (Domain.recommended_domain_count ())

let default_jobs () =
  match Atomic.get override with
  | Some j -> clamp_jobs j
  | None -> domain_budget ()

let spawn_helper job =
  let budget = domain_budget () in
  let rec claim () =
    let h = Atomic.get helpers in
    max 1 (Atomic.get busy) + h < budget
    && (Atomic.compare_and_set helpers h (h + 1) || claim ())
  in
  if not (claim ()) then None
  else
    match Domain.spawn job with
    | d ->
      Atomic.incr started;
      Some
        (fun () ->
          Fun.protect ~finally:(fun () -> Atomic.decr helpers) (fun () ->
              Domain.join d))
    | exception _ ->
      Atomic.decr helpers;
      None

let running_helpers () = Atomic.get helpers
let helpers_started () = Atomic.get started

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.work t.mutex
  done;
  match Queue.take_opt t.queue with
  | None ->
    (* stopped and drained *)
    Mutex.unlock t.mutex
  | Some task ->
    Mutex.unlock t.mutex;
    task ();
    worker_loop t

let create ?jobs () =
  let n_jobs = clamp_jobs (match jobs with Some j -> j | None -> default_jobs ()) in
  let t =
    {
      n_jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      work = Condition.create ();
      stop = false;
      workers = [];
    }
  in
  if n_jobs > 1 then
    t.workers <-
      List.init (n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.n_jobs

let shutdown t =
  let ws =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    let ws = t.workers in
    t.workers <- [];
    Mutex.unlock t.mutex;
    ws
  in
  List.iter Domain.join ws

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let mapi t f xs =
  let stopped =
    Mutex.lock t.mutex;
    let s = t.stop in
    Mutex.unlock t.mutex;
    s
  in
  if stopped then invalid_arg "Pool.map: pool is shut down";
  if t.n_jobs = 1 then List.mapi f xs
  else
    match xs with
    | [] -> []
    | [ x ] -> [ f 0 x ]
    | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results = Array.make n None in
      let errors = Array.make n None in
      let done_mutex = Mutex.create () in
      let done_cond = Condition.create () in
      let remaining = ref n in
      let mon = Atomic.get monitor in
      let caller = (Domain.self () :> int) in
      let submitted = match mon with Some _ -> Clock.now () | None -> 0. in
      let body i =
        match f i arr.(i) with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some e
      in
      let task i () =
        Atomic.incr busy;
        (match mon with
        | None -> body i
        | Some m ->
          let start = Clock.now () in
          body i;
          let stop = Clock.now () in
          m.on_task ~wait_s:(start -. submitted) ~run_s:(stop -. start)
            ~helper:((Domain.self () :> int) = caller));
        Atomic.decr busy;
        Mutex.lock done_mutex;
        decr remaining;
        if !remaining = 0 then Condition.broadcast done_cond;
        Mutex.unlock done_mutex
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.push (task i) t.queue
      done;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      (match mon with
      | Some m -> m.on_batch ~queued:n ~jobs:t.n_jobs
      | None -> ());
      (* The calling domain drains the queue alongside the workers. *)
      let rec help () =
        Mutex.lock t.mutex;
        match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.mutex;
          task ();
          help ()
        | None -> Mutex.unlock t.mutex
      in
      help ();
      (* Waiting on [done_mutex] also publishes the workers' writes to
         [results]/[errors]: each slot is written before the worker
         takes the lock to decrement, and we read after taking it. *)
      Mutex.lock done_mutex;
      while !remaining > 0 do
        Condition.wait done_cond done_mutex
      done;
      Mutex.unlock done_mutex;
      (match Array.find_map Fun.id errors with
      | Some e -> raise e
      | None -> ());
      Array.to_list (Array.map Option.get results)

let map t f xs = mapi t (fun _ x -> f x) xs

let run ?jobs f xs =
  let n = match jobs with Some j -> clamp_jobs j | None -> default_jobs () in
  if n = 1 || List.compare_length_with xs 1 <= 0 then List.map f xs
  else with_pool ~jobs:n (fun t -> map t f xs)
