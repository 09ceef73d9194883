(* The serve workload: steady-state re-advice traffic against a socket
   daemon in its own process (one worker, --jobs 1).

   Two tenants each ask for advice on two kernels, always with the same
   hints, so after the cold answers taken in set-up every request is
   answered from the tenant's measurement cache: no simulation runs,
   and the cost is the per-request workload rebuild and fingerprint
   plus frame, wire and journal work. Arrivals are an open loop at a
   fixed rate ([schedule]), sent by two workers with one connection
   each, and latency is counted from each request's scheduled send
   time, so a stalled daemon delays the requests queued behind it
   too. *)

module Machine = Aptget_machine.Machine
module Suite = Aptget_workloads.Suite
module Rng = Aptget_util.Rng
module Server = Aptget_serve.Server
module Client = Aptget_serve.Client
module Transport = Aptget_serve.Transport
module Wire = Aptget_serve.Wire

let tenants = [ "acme"; "globex" ]
let workloads = [ "HJ2-NPO"; "spmv" ]

(* Arrival rate in requests per second. A warm request keeps the one
   daemon worker busy for 40-80 ms, so the daemon is about a third
   busy and the latency is mostly service time, not queueing. *)
let rate = 5.

(* Run-time state lives under the checkout, in a directory git
   ignores; the socket path is relative to stay short. *)
let run_dir = ".perf"
let spool = Filename.concat run_dir "serve"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

type daemon = { pid : int; addr : Transport.addr }

let sock spool = Filename.concat spool "sock"

(* The daemon process: this executable again, run as [--serve-daemon
   SPOOL]. A fresh process image rather than a fork, so the daemon's
   peak RSS is its own, not the benchmark's heap shared copy-on-write. *)
let daemon_main spool =
  let code =
    match
      Server.serve_socket
        (Server.create
           { (Server.default_config ~spool) with Server.jobs = Some 1 })
        (Server.default_socket_config (Transport.Unix_path (sock spool)))
    with
    | Ok _ -> 0
    | Error e ->
      prerr_endline e;
      1
  in
  exit code

let start_daemon () =
  rm_rf spool;
  Transport.mkdir_p spool;
  let log =
    Unix.openfile (Filename.concat spool "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--serve-daemon"; spool |]
          Unix.stdin log log)
  in
  let deadline = Report.now () +. 30. in
  while (not (Sys.file_exists (sock spool))) && Report.now () < deadline do
    Unix.sleepf 0.01
  done;
  { pid; addr = Transport.Unix_path (sock spool) }

let client ?(stream = 0) d =
  Client.create ~stream (Client.default_config (Client.Socket d.addr))

(* Graceful shutdown, then a bounded wait; a daemon that does not exit
   is killed, and always reaped. Its spool goes with it. *)
let stop_daemon d =
  ignore (Client.shutdown (client d));
  let deadline = Report.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Report.now () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  rm_rf run_dir

let request ~id ~tenant ~workload doc =
  {
    Wire.req_id = id;
    tenant;
    workload;
    deadline_cycles = None;
    guard_floor = None;
    remap = true;
    hints = Some doc;
    program = None;
  }

type state = {
  daemon : daemon;
  kernels : Kernel.t list;
  docs : (string * Aptget_profile.Hints_file.doc) list;
  cold : ((string * string) * string) list;  (** (tenant, workload) -> body *)
}

let cold_answers daemon docs =
  List.concat_map
    (fun tenant ->
      List.map
        (fun (workload, doc) ->
          let id = Printf.sprintf "cold-%s-%s" tenant workload in
          match
            Client.call (client daemon)
              (request ~id ~tenant ~workload doc)
          with
          | Ok { Client.response = r; _ } when r.Wire.rsp_status = Wire.Ok_ ->
            ((tenant, workload), r.Wire.rsp_body)
          | Ok { Client.response = r; _ } ->
            Kernel.fail "cold %s: %s %s" id
              (Wire.status_to_string r.Wire.rsp_status)
              r.Wire.rsp_reason
          | Error e -> Kernel.fail "cold %s: %s" id e)
        docs)
    tenants

(* Set-up: profile the two kernels in-process for their hints, start
   the daemon, and take each tenant's cold answer for each kernel. *)
let setup () =
  let kernels =
    List.map
      (fun name ->
        match Suite.find name with
        | Some w -> Kernel.profile ~config:Machine.default_config w
        | None -> Kernel.fail "unknown workload %s" name)
      workloads
  in
  let docs = List.map (fun k -> (Kernel.name k, Kernel.hints_doc k)) kernels in
  let daemon = start_daemon () in
  match cold_answers daemon docs with
  | cold -> { daemon; kernels; docs; cold }
  | exception e ->
    stop_daemon daemon;
    raise e

type answer = {
  due : float;  (** scheduled send time *)
  latency : float;  (** seconds from [due] to the answer *)
  late : float;  (** seconds the send started after [due] *)
  ok : bool;  (** status ok and body identical to the cold answer *)
  retries : int;
  traced : bool;  (** sent inside spans *)
}

(* Request k is due at (k + u/2) / rate with u uniform in [0, 1) from
   the seed: an evenly paced open loop whose gaps (0.5 to 1.5 periods)
   rarely fall below a warm request's service time. Poisson arrivals
   would queue requests behind each other at random, and the tail
   latency would then vary more from seed to seed than any change the
   benchmark is meant to detect. Requests cycle through the (tenant,
   kernel) pairs in a fixed order: the daemon's heap, and so its peak
   RSS, depends on the order of its requests, and with a seeded order
   it moved by 11% between seeds. *)
let schedule ~seed ~seconds =
  let rng = Rng.create seed in
  let pairs =
    Array.of_list
      (List.concat_map (fun t -> List.map (fun w -> (t, w)) workloads) tenants)
  in
  Array.init
    (int_of_float (seconds *. rate))
    (fun k ->
      let tenant, workload = pairs.(k mod Array.length pairs) in
      ((float_of_int k +. (0.5 *. Rng.float rng 1.)) /. rate, tenant, workload))

(* An answer is good when its status is ok and its body is byte for
   byte the tenant's cold answer for that kernel. Returns the verdict
   and the retries the client needed. *)
let check st ~id ~tenant ~workload = function
  | Ok o ->
    let r = o.Client.response in
    let ok =
      r.Wire.rsp_status = Wire.Ok_
      && r.Wire.rsp_body = List.assoc (tenant, workload) st.cold
    in
    if not ok then
      Report.info "FAILED: %s: %s %s" id
        (Wire.status_to_string r.Wire.rsp_status)
        (if r.Wire.rsp_status = Wire.Ok_ then
           "body differs from the cold answer"
         else r.Wire.rsp_reason);
    (ok, o.Client.attempts - 1)
  | Error e ->
    Report.info "FAILED: %s: lost: %s" id e;
    (false, 0)

(* Two senders (this domain and one more) take requests in schedule
   order, each waiting for its request's due time; the first is due
   50 ms after the call. With [traced], every other round of the
   (tenant, kernel) cycle is sent inside spans, so traced and untraced
   requests share the same mix and the same moments of the run. *)
let send ~traced st sched =
  let n = Array.length sched in
  let next = Atomic.make 0 in
  let t0 = Report.now () +. 0.05 in
  let worker () =
    let rec loop acc =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then acc
      else begin
        let off, tenant, workload = sched.(i) in
        let due = t0 +. off in
        Transport.sleep (due -. Report.now ());
        let late = Report.now () -. due in
        let id = Printf.sprintf "r%06d" i in
        let req = request ~id ~tenant ~workload (List.assoc workload st.docs) in
        let round = i / (List.length tenants * List.length workloads) in
        let traced = traced && round land 1 = 1 in
        let span name f = if traced then Kernel.span name f else f () in
        let answered, (ok, retries) =
          span Kernel.op_span (fun () ->
              let res =
                span "serve.call" (fun () ->
                    Client.call (client ~stream:i st.daemon) req)
              in
              let answered = Report.now () in
              ( answered,
                span "workloads.verify" (fun () ->
                    check st ~id ~tenant ~workload res) ))
        in
        loop
          ({ due; latency = answered -. due; late; ok; retries; traced } :: acc)
      end
    in
    loop []
  in
  let other = Domain.spawn worker in
  let mine = worker () in
  let theirs = Domain.join other in
  List.sort (fun a b -> Float.compare a.due b.due) (mine @ theirs)

let speedup_of_body body =
  List.find_map
    (fun line -> Scanf.sscanf_opt line "speedup: %fx" Fun.id)
    (String.split_on_char '\n' body)
