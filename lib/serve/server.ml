module Pool = Aptget_util.Pool
module Clock = Aptget_util.Clock
module Atomic_file = Aptget_store.Atomic_file
module Crash = Aptget_store.Crash
module Journal = Aptget_store.Journal
module Breaker = Aptget_core.Breaker
module Metrics = Aptget_obs.Metrics
module Trace = Aptget_obs.Trace

type config = {
  spool : string;
  capacity : int;
  jobs : int option;
  default_deadline : int option;
  handler : Handler.config;
  breaker : Breaker.config;
  cache : bool;
}

let default_config ~spool =
  {
    spool;
    capacity = 64;
    jobs = None;
    default_deadline = None;
    handler = Handler.default_config;
    breaker = Breaker.default_config;
    cache = true;
  }

type report = {
  s_frames : int;
  s_torn : int;
  s_resynced : int;
  s_ok : int;
  s_shed : int;
  s_timed_out : int;
  s_rejected : int;
  s_failed : int;
  s_malformed : int;
  s_aborted : int;
  s_resumed : int;
  s_replayed : int;
  s_drained : bool;
  s_salvaged : int;
}

let empty_report =
  {
    s_frames = 0;
    s_torn = 0;
    s_resynced = 0;
    s_ok = 0;
    s_shed = 0;
    s_timed_out = 0;
    s_rejected = 0;
    s_failed = 0;
    s_malformed = 0;
    s_aborted = 0;
    s_resumed = 0;
    s_replayed = 0;
    s_drained = false;
    s_salvaged = 0;
  }

let combine a b =
  {
    s_frames = a.s_frames + b.s_frames;
    s_torn = a.s_torn + b.s_torn;
    s_resynced = a.s_resynced + b.s_resynced;
    s_ok = a.s_ok + b.s_ok;
    s_shed = a.s_shed + b.s_shed;
    s_timed_out = a.s_timed_out + b.s_timed_out;
    s_rejected = a.s_rejected + b.s_rejected;
    s_failed = a.s_failed + b.s_failed;
    s_malformed = a.s_malformed + b.s_malformed;
    s_aborted = a.s_aborted + b.s_aborted;
    s_resumed = a.s_resumed + b.s_resumed;
    s_replayed = a.s_replayed + b.s_replayed;
    s_drained = a.s_drained || b.s_drained;
    s_salvaged = a.s_salvaged + b.s_salvaged;
  }

let exit_code r =
  if r.s_shed > 0 then Exit_code.Overloaded
  else if
    r.s_failed + r.s_timed_out + r.s_rejected + r.s_malformed + r.s_aborted
    + r.s_torn + r.s_resynced
    > 0
  then Exit_code.Degraded
  else Exit_code.Ok_

(* What one [Unix.stat] of responses.q says: size, mtime, inode. *)
type stamp = int * float * int

type t = {
  config : config;
  registry : Tenant.registry;
  answered : (string, Wire.response) Hashtbl.t;
      (* the answered-id index: the first recorded response for each id
         in responses.q, malformed answers left out *)
  mutable answered_stamp : stamp option;
      (* responses.q as this instance last read or wrote it; the index
         is reused while a stat still matches, reloaded otherwise *)
  mutable processed : int;
  mutable resynced : int;  (* cumulative corrupt queue regions skipped *)
  mutable salvaged : int;  (* cumulative journal records salvaged *)
  mutable beat : int;  (* health heartbeat: bumped on every publish *)
  mutable last_torn : string option;
      (* the trailing incomplete tail this instance last saw, so a tear
         that persists across --watch polls is counted once, not once
         per poll *)
}

let requests_path spool = Transport.requests_path ~spool

let responses_path spool = Transport.responses_path ~spool

let journal_path spool = Transport.journal_path ~spool

let with_spool_lock = Transport.with_spool_lock

let create config =
  {
    config;
    registry =
      Tenant.registry ~root:config.spool ~breaker:config.breaker
        ~cache:config.cache ();
    answered = Hashtbl.create 64;
    answered_stamp = None;
    processed = 0;
    resynced = 0;
    salvaged = 0;
    beat = 0;
    last_torn = None;
  }

(* Cumulative damage-repair evidence published with every health
   write. Journal salvage is tracked directly on [t] (the metrics
   registry is off by default); any other [store.salvage.*] counters
   (quarantine, hints_file) ride along when metrics are enabled. *)
let salvage_counts t =
  let prefix = "store.salvage." in
  let plen = String.length prefix in
  let from_metrics =
    List.filter_map
      (fun (k, v) ->
        if String.length k > plen && String.sub k 0 plen = prefix then
          let name = String.sub k plen (String.length k - plen) in
          if name = "journal" then None else Some (name, v)
        else None)
      (Metrics.snapshot ()).Metrics.counters
  in
  ("journal", t.salvaged) :: from_metrics

let publish t state =
  Trace.with_span ~name:"serve.health" @@ fun () ->
  t.beat <- t.beat + 1;
  Health.write ~spool:t.config.spool ~processed:t.processed
    ~resynced:t.resynced ~salvage:(salvage_counts t) ~beat:t.beat
    ~pid:(Unix.getpid ()) state

let submit ~spool body =
  Transport.spool_append ~spool (Frame.encode (Wire.body_to_string body))

let responses ~spool =
  match Atomic_file.read ~path:(responses_path spool) with
  | Error e -> Error e
  | Ok buf ->
    let s = Frame.decode_stream buf in
    Ok (List.map Wire.response_of_string s.Frame.frames)

(* ---------------- the answered-id index ---------------- *)

let stamp_of (st : Unix.stats) : stamp =
  (st.Unix.st_size, st.Unix.st_mtime, st.Unix.st_ino)

let no_file : stamp = (0, 0., 0)

let stamp path =
  match Transport.retry_intr (fun () -> Unix.stat path) with
  | st -> stamp_of st
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> no_file

(* First response wins. A malformed answer carries a synthetic
   [frame-N] id that no client chose, so it answers nothing: a later
   request that happens to use that id is new work. *)
let add_first tbl (r : Wire.response) =
  if r.Wire.rsp_status <> Wire.Malformed && not (Hashtbl.mem tbl r.Wire.rsp_id)
  then Hashtbl.add tbl r.Wire.rsp_id r

(* The index over responses.q, parsed only when the file is not as this
   instance last left it: on first use, after a restart, or after an
   outside write. An incomplete trailing frame is what a kill in the
   middle of an append leaves; it is cut off here, before the next
   append could bury it under whole frames. *)
let answered_index t =
  let path = responses_path t.config.spool in
  let current = stamp path in
  if t.answered_stamp <> Some current then begin
    Metrics.incr "serve.responses.loads";
    Hashtbl.reset t.answered;
    let buf = match Atomic_file.read ~path with Ok b -> b | Error _ -> "" in
    let s = Frame.decode_stream buf in
    List.iter
      (fun payload ->
        match Wire.response_of_string payload with
        | Ok r -> add_first t.answered r
        | Error _ -> ())
      s.Frame.frames;
    t.answered_stamp <-
      (match s.Frame.trailing with
      | None -> Some current
      | Some _ ->
        Transport.retry_intr (fun () -> Unix.truncate path s.Frame.consumed);
        Metrics.incr "store.salvage.responses";
        Some (stamp path))
  end;
  t.answered

(* One O_APPEND write: the file grows by exactly the fresh frames, so
   its bytes stay a function of the request sequence alone. The index
   follows the write only if the file was still as this instance last
   left it; otherwise the next batch reloads. *)
let append_responses t rs =
  let path = responses_path t.config.spool in
  let fresh =
    String.concat ""
      (List.map (fun r -> Frame.encode (Wire.response_to_string r)) rs)
  in
  let indexed = t.answered_stamp = Some (stamp path) in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  let st =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc fresh;
        flush oc;
        Unix.fstat (Unix.descr_of_out_channel oc))
  in
  if indexed then begin
    t.answered_stamp <- Some (stamp_of st);
    List.iter (add_first t.answered) rs
  end
  else t.answered_stamp <- None

type work = { w_order : int; w_req : Wire.request; w_tenant : Tenant.t }

let response_of_outcome (req : Wire.request) (o : Handler.outcome) =
  {
    Wire.rsp_id = req.Wire.req_id;
    rsp_tenant = req.Wire.tenant;
    rsp_status = o.Handler.h_status;
    rsp_reason = o.Handler.h_reason;
    rsp_body = o.Handler.h_body;
  }

let reject (req : Wire.request) reason =
  {
    Wire.rsp_id = req.Wire.req_id;
    rsp_tenant = req.Wire.tenant;
    rsp_status = Wire.Rejected;
    rsp_reason = reason;
    rsp_body = "";
  }

type processed = {
  pr_report : report;
  pr_deliveries : (int option * Wire.response) list;
  pr_journaled : bool;  (* the journal holds records, all now settled *)
}

(* The transport-agnostic batch core: takes decoded frame payloads (in
   arrival order) plus the transport's damage accounting, and performs
   everything both transports share — journal recovery, the
   duplicate-id ledger, admission in arrival order, per-tenant
   parallel execution and the response-record append. Journal
   compaction is left to the caller ({!compact}), after delivery.
   [ack] runs right after the responses land (the spool
   transport truncates its consumed queue prefix there). With
   [replay], an id that already has a durable answer is re-delivered
   (not re-executed and not re-recorded) instead of rejected — the
   socket transport's idempotent-retry semantics; the spool transport
   keeps its historical reject. *)
let process ?crash ?(replay = false) ?(ack = fun () -> ()) t ~payloads ~torn
    ~resynced ~skipped_bytes =
  let cfg = t.config in
  let inflight, orphans, recovery =
    Trace.with_span ~name:"serve.journal.open" (fun () ->
        Inflight.open_ ?crash ~path:(journal_path cfg.spool) ())
  in
  let journal_records = ref (recovery.Journal.records <> []) in
  let report, deliveries =
    Fun.protect ~finally:(fun () -> Inflight.close inflight) @@ fun () ->
  let frames = payloads in
  let n_frames = List.length frames in
  if n_frames > 0 then Metrics.incr ~by:n_frames "serve.requests";
  if torn > 0 then Metrics.incr "serve.frame.torn";
  if resynced > 0 then begin
    Metrics.incr ~by:resynced "serve.frame.resync";
    Metrics.incr ~by:skipped_bytes "serve.frame.skipped_bytes"
  end;
  (* Ids already answered in responses.q: the duplicate detector that
     survives restarts and journal compaction. An id the journal says
     finished but that has no answer is crash recovery (the kill hit
     between the [done] record and the response write) and is
     re-executed; an answered id is client id reuse — rejected on the
     spool path, replayed (idempotent retry) on the socket path. The
     first recorded response for an id is the authoritative one. *)
  let answered =
    Trace.with_span ~name:"serve.index" (fun () -> answered_index t)
  in
  (* Recovery first: every orphan gets a clean [aborted] answer, and a
     [done] record so the answer is not repeated on the next drain. *)
  let aborted_ids = Hashtbl.create 8 in
  let aborted_responses =
    List.map
      (fun (o : Inflight.orphan) ->
        Hashtbl.replace aborted_ids o.Inflight.o_id ();
        Inflight.finish inflight ~id:o.Inflight.o_id ~status:"aborted";
        {
          Wire.rsp_id = o.Inflight.o_id;
          rsp_tenant = o.Inflight.o_tenant;
          rsp_status = Wire.Aborted;
          rsp_reason = "in flight when the daemon died; resubmit under a new id";
          rsp_body = "";
        })
      orphans
  in
  if aborted_responses <> [] then
    Metrics.incr ~by:(List.length aborted_responses) "serve.aborted";
  (* Admission walk, strictly in arrival order: shedding is a function
     of the request sequence, never of worker timing. *)
  let admission = Admission.create ~capacity:cfg.capacity in
  let seen = Hashtbl.create 16 in
  let immediate = ref [] in
  let push order rsp = immediate := (order, rsp) :: !immediate in
  (* Replay-mode deliveries that must NOT be re-recorded: answered ids
     re-sent to a retrying client, and in-batch duplicates (a
     retransmitted frame) answered with their sibling's response. *)
  let replays = ref [] in
  let dup_pending = ref [] in
  let resumed = ref 0 in
  let drained = ref false in
  List.iteri
    (fun i payload ->
      match Wire.body_of_string payload with
      | Error e ->
        push i
          {
            Wire.rsp_id = Printf.sprintf "frame-%d" (i + 1);
            rsp_tenant = "-";
            rsp_status = Wire.Malformed;
            rsp_reason = e;
            rsp_body = "";
          }
      | Ok Wire.Shutdown -> drained := true
      | Ok (Wire.Run req) ->
        if Hashtbl.mem aborted_ids req.Wire.req_id then
          (* the orphan response above already answers this id; on the
             socket path the waiting connection gets a copy *)
          (if replay then dup_pending := (i, req) :: !dup_pending)
        else if Hashtbl.mem seen req.Wire.req_id then
          if replay then dup_pending := (i, req) :: !dup_pending
          else push i (reject req "duplicate request id in batch")
        else begin
          Hashtbl.replace seen req.Wire.req_id ();
          match Hashtbl.find_opt answered req.Wire.req_id with
          | Some recorded when replay ->
            Metrics.incr "serve.replayed";
            replays := (i, recorded) :: !replays
          | Some _ ->
            push i
              (reject req
                 "request id already answered in a previous drain; use a \
                  fresh id")
          | None ->
            if !drained then
              push i (reject req "daemon draining; resubmit to the next incarnation")
            else begin
              if Option.is_some (Inflight.finished inflight ~id:req.Wire.req_id)
              then incr resumed;
              match Tenant.find_or_create t.registry req.Wire.tenant with
              | Error e -> push i (reject req e)
              | Ok tenant -> (
                let req =
                  match req.Wire.deadline_cycles with
                  | None -> { req with Wire.deadline_cycles = cfg.default_deadline }
                  | Some _ -> req
                in
                match
                  Admission.offer admission
                    { w_order = i; w_req = req; w_tenant = tenant }
                with
                | Admission.Admitted -> ()
                | Admission.Shed ->
                  push i
                    {
                      Wire.rsp_id = req.Wire.req_id;
                      rsp_tenant = req.Wire.tenant;
                      rsp_status = Wire.Overloaded;
                      rsp_reason =
                        Printf.sprintf "admission queue full (capacity %d)"
                          cfg.capacity;
                      rsp_body = "";
                    })
            end
        end)
    frames;
  let rec collect () =
    match Admission.take admission with
    | Some w -> w :: collect ()
    | None -> []
  in
  let admitted = collect () in
  (* Journal every admission before anything runs, serially, in
     arrival order — the crash-recovery ground truth. *)
  if admitted <> [] then journal_records := true;
  Trace.with_span ~name:"serve.journal.admit" (fun () ->
      List.iter
        (fun w ->
          Inflight.admit inflight ~id:w.w_req.Wire.req_id
            ~tenant:w.w_req.Wire.tenant)
        admitted);
  (* Per-tenant serial groups (first-appearance order), parallel across
     tenants. An armed crash plan forces serial execution so the
     journal's write ordering — which the plan counts — is exactly the
     admission order. *)
  let group_tbl : (string, work list ref) Hashtbl.t = Hashtbl.create 8 in
  let group_keys = ref [] in
  List.iter
    (fun w ->
      let key = w.w_tenant.Tenant.id in
      match Hashtbl.find_opt group_tbl key with
      | Some r -> r := w :: !r
      | None ->
        group_keys := key :: !group_keys;
        Hashtbl.add group_tbl key (ref [ w ]))
    admitted;
  let groups =
    List.rev_map (fun k -> List.rev !(Hashtbl.find group_tbl k)) !group_keys
  in
  let jobs =
    match crash with
    | Some c when Crash.armed c -> Some 1
    | _ -> cfg.jobs
  in
  let inflight_n = Atomic.make (List.length admitted) in
  Metrics.set_gauge "serve.inflight" (float_of_int (List.length admitted));
  let process_group group =
    List.map
      (fun w ->
        let req = w.w_req in
        let outcome =
          Trace.with_span ~name:"serve.request"
            ~attrs:
              [
                ("tenant", req.Wire.tenant);
                ("id", req.Wire.req_id);
                ("workload", req.Wire.workload);
              ]
            (fun () -> Handler.run ?crash cfg.handler ~tenant:w.w_tenant req)
        in
        Inflight.finish inflight ~id:req.Wire.req_id
          ~status:(Wire.status_to_string outcome.Handler.h_status);
        Metrics.set_gauge "serve.inflight"
          (float_of_int (Atomic.fetch_and_add inflight_n (-1) - 1));
        (w.w_order, response_of_outcome req outcome))
      group
  in
  let results = Pool.run ?jobs process_group groups in
  let ordered =
    List.sort
      (fun (a, _) (b, _) -> compare (a : int) b)
      (List.concat results @ !immediate)
  in
  let all_responses = aborted_responses @ List.map snd ordered in
  (* In-batch duplicates (and requests covered by an orphan abort) are
     answered with the authoritative response for their id — delivered
     to the waiting connection, never re-recorded. *)
  let by_id = Hashtbl.create 16 in
  List.iter (add_first by_id) all_responses;
  List.iter
    (fun (i, req) ->
      let rsp =
        match Hashtbl.find_opt by_id req.Wire.req_id with
        | Some r -> r
        | None -> (
          match Hashtbl.find_opt answered req.Wire.req_id with
          | Some r -> r
          | None -> reject req "duplicate request id in batch")
      in
      Metrics.incr "serve.replayed";
      replays := (i, rsp) :: !replays)
    !dup_pending;
  let count st =
    List.length
      (List.filter (fun r -> r.Wire.rsp_status = st) all_responses)
  in
  List.iter
    (fun st ->
      let n = count st in
      if n > 0 then
        Metrics.incr ~by:n ("serve.responses." ^ Wire.status_to_string st))
    [
      Wire.Ok_;
      Wire.Overloaded;
      Wire.Timed_out;
      Wire.Malformed;
      Wire.Rejected;
      Wire.Failed;
      Wire.Aborted;
    ];
  (* Responses land with one append to responses.q, and only then does
     the transport acknowledge the batch (the spool truncates its
     consumed queue prefix): a crash between the two duplicates work,
     never loses it. A kill inside the append leaves a torn frame that
     the next index load cuts off; the request it answered is then
     finished in the journal with no answer, so it is re-executed.
     Neither write is routed through the crash plan — simulated kills
     target the journal, which is what recovery is tested against. *)
  if all_responses <> [] then
    Trace.with_span ~name:"serve.append" (fun () ->
        append_responses t all_responses);
  ack ();
  t.processed <- t.processed + List.length all_responses;
  let deliveries =
    List.map (fun r -> (None, r)) aborted_responses
    @ List.map
        (fun (i, r) -> (Some i, r))
        (List.sort
           (fun (a, _) (b, _) -> compare (a : int) b)
           (ordered @ !replays))
  in
  ( {
      s_frames = n_frames;
      s_torn = torn;
      s_resynced = resynced;
      s_ok = count Wire.Ok_;
      s_shed = Admission.shed admission;
      s_timed_out = count Wire.Timed_out;
      s_rejected = count Wire.Rejected;
      s_failed = count Wire.Failed;
      s_malformed = count Wire.Malformed;
      s_aborted = List.length aborted_responses;
      s_resumed = !resumed;
      s_replayed = List.length !replays;
      s_drained = !drained;
      s_salvaged = recovery.Journal.dropped;
    },
    deliveries )
  in
  t.resynced <- t.resynced + report.s_resynced;
  t.salvaged <- t.salvaged + report.s_salvaged;
  {
    pr_report = report;
    pr_deliveries = deliveries;
    pr_journaled = !journal_records;
  }

(* After a completed batch every record in the journal is settled:
   each admit has its done, each orphan was answered and marked done,
   and the responses have landed. Compact, so a long-running daemon
   does not replay an ever-growing history on every batch. The callers
   run this once the batch is acknowledged or delivered, so the
   rewrite is off the answer's path; it always runs before the next
   batch opens the journal. Duplicate-id detection does not depend on
   the journal: it reads responses.q. A crash mid-batch raises past
   this point and leaves the journal for the next incarnation to
   recover; a kill between delivery and compaction leaves only settled
   records, which recover to nothing. *)
let compact t p =
  if p.pr_journaled then
    Trace.with_span ~name:"serve.compact" (fun () ->
        Journal.truncate ~path:(journal_path t.config.spool);
        Metrics.incr "serve.journal.compactions")

(* ---------------- spool transport ---------------- *)

let drain ?crash t =
  let cfg = t.config in
  Transport.mkdir_p cfg.spool;
  Trace.with_span ~name:"serve.batch" @@ fun () ->
  publish t Health.Ready;
  Metrics.incr "serve.drains";
  let buf =
    with_spool_lock cfg.spool (fun () ->
        match Atomic_file.read ~path:(requests_path cfg.spool) with
        | Ok b -> b
        | Error _ -> "")
  in
  let stream = Frame.decode_stream buf in
  (* A trailing incomplete tail is preserved (it may be an append still
     in progress), so a tear that persists across --watch polls is
     counted the first time this instance sees it, not once per poll. *)
  let torn =
    match stream.Frame.trailing with
    | None ->
      t.last_torn <- None;
      0
    | Some (pos, _) ->
      let tail = String.sub buf pos (String.length buf - pos) in
      if t.last_torn = Some tail then 0
      else begin
        t.last_torn <- Some tail;
        1
      end
  in
  (* Under the spool lock, drop exactly the prefix this drain consumed:
     frames a client appended after our snapshot — and a torn trailing
     append that may yet complete — survive to the next drain. If the
     file no longer extends our snapshot (external tampering), leave it
     whole: duplicated work beats lost work. *)
  let ack () =
    match stream.Frame.consumed with
    | 0 -> ()
    | consumed ->
      with_spool_lock cfg.spool (fun () ->
          let path = requests_path cfg.spool in
          let current =
            match Atomic_file.read ~path with Ok b -> b | Error _ -> ""
          in
          if
            String.length current >= consumed
            && String.sub current 0 consumed = String.sub buf 0 consumed
          then
            Atomic_file.write ~path
              (String.sub current consumed (String.length current - consumed)))
  in
  let p =
    process ?crash ~replay:false ~ack t ~payloads:stream.Frame.frames ~torn
      ~resynced:(List.length stream.Frame.skipped)
      ~skipped_bytes:(Frame.skipped_bytes stream)
  in
  compact t p;
  (* Re-publish after the batch so a probe between drains sees the
     damage this drain found, not just that the daemon is alive. *)
  publish t Health.Ready;
  p.pr_report

let stop t ~code = publish t (Health.Stopped (Exit_code.to_int code))

let serve ?crash ?(poll = 0.05) ?max_drains t =
  let rec go acc n =
    let r = drain ?crash t in
    let acc = combine acc r in
    let n = n + 1 in
    if r.s_drained || match max_drains with Some m -> n >= m | None -> false
    then acc
    else begin
      if r.s_frames = 0 then Transport.sleep poll;
      go acc n
    end
  in
  let report = go empty_report 0 in
  stop t ~code:(exit_code report);
  report

(* ---------------- socket transport ---------------- *)

type socket_config = {
  sk_addr : Transport.addr;
  sk_max_conns : int;
  sk_read_deadline : float;
  sk_poll : float;
  sk_heartbeat : float;
  sk_faults : Net_faults.config;
}

let default_socket_config addr =
  {
    sk_addr = addr;
    sk_max_conns = 64;
    sk_read_deadline = 2.0;
    sk_poll = 0.02;
    sk_heartbeat = 0.5;
    sk_faults = Net_faults.off;
  }

(* A connection refused at the cap (or reaped at the read deadline)
   never delivered a request id, so the shed notice carries "-": the
   client treats it as a terminal admission-level shed, exactly like a
   queue-level [overloaded] response. *)
let shed_response =
  {
    Wire.rsp_id = "-";
    rsp_tenant = "-";
    rsp_status = Wire.Overloaded;
    rsp_reason = "connection shed: cap reached or read deadline blown";
    rsp_body = "";
  }

let serve_socket ?crash ?max_batches t sc =
  let cfg = t.config in
  Transport.mkdir_p cfg.spool;
  let tconfig =
    {
      Transport.sc_addr = sc.sk_addr;
      sc_max_conns = sc.sk_max_conns;
      sc_read_deadline = sc.sk_read_deadline;
      sc_shed_frame = Frame.encode (Wire.response_to_string shed_response);
      sc_faults = sc.sk_faults;
    }
  in
  match Transport.listen tconfig with
  | Error e -> Error e
  | Ok listener ->
    Fun.protect ~finally:(fun () -> Transport.close_listener listener)
    @@ fun () ->
    publish t Health.Ready;
    (* Recovery runs up front, not lazily on the first request: orphans
       of a crashed incarnation get their [aborted] answers (and the
       journal its compaction) immediately, so a client retrying into
       the restarted daemon is replayed the abort rather than hanging. *)
    let r0 =
      Trace.with_span ~name:"serve.batch" @@ fun () ->
      let p =
        process ?crash ~replay:true t ~payloads:[] ~torn:0 ~resynced:0
          ~skipped_bytes:0
      in
      compact t p;
      p.pr_report
    in
    let last_beat = ref (Clock.now ()) in
    let deliver conns p =
      List.iter
        (fun (idx, rsp) ->
          match idx with
          | None -> () (* orphan abort: durable in responses.q only *)
          | Some i ->
            let cid = conns.(i) in
            Transport.respond listener cid
              (Frame.encode (Wire.response_to_string rsp));
            Transport.finish listener cid)
        p.pr_deliveries
    in
    let rec loop acc batches =
      let pr = Transport.poll listener ~timeout:sc.sk_poll in
      let conn_shed = pr.Transport.p_conn_shed + pr.Transport.p_expired in
      if pr.Transport.p_conn_shed > 0 then
        Metrics.incr ~by:pr.Transport.p_conn_shed "serve.conn.shed";
      if pr.Transport.p_expired > 0 then
        Metrics.incr ~by:pr.Transport.p_expired "serve.conn.expired";
      if pr.Transport.p_payloads <> [] || pr.Transport.p_resynced > 0 then begin
        Metrics.incr "serve.batches";
        let conns = Array.of_list (List.map fst pr.Transport.p_payloads) in
        let p =
          Trace.with_span ~name:"serve.batch" @@ fun () ->
          let p =
            process ?crash ~replay:true t
              ~payloads:(List.map snd pr.Transport.p_payloads)
              ~torn:0 ~resynced:pr.Transport.p_resynced
              ~skipped_bytes:pr.Transport.p_skipped_bytes
          in
          (* answers first; the journal rewrite and the health publish
             wait until the clients have them *)
          deliver conns p;
          compact t p;
          publish t Health.Ready;
          p
        in
        last_beat := Clock.now ();
        let acc =
          combine acc
            {
              p.pr_report with
              s_shed = p.pr_report.s_shed + conn_shed;
            }
        in
        let batches = batches + 1 in
        if
          p.pr_report.s_drained
          || match max_batches with Some m -> batches >= m | None -> false
        then acc
        else loop acc batches
      end
      else begin
        let acc =
          if conn_shed > 0 then
            combine acc { empty_report with s_shed = conn_shed }
          else acc
        in
        (* idle heartbeat: a supervisor polling the health file sees the
           beat advance even when no requests arrive *)
        let now = Clock.now () in
        if now -. !last_beat >= sc.sk_heartbeat then begin
          publish t Health.Ready;
          last_beat := now
        end;
        loop acc batches
      end
    in
    let report = combine r0 (loop empty_report 0) in
    stop t ~code:(exit_code report);
    Ok report
