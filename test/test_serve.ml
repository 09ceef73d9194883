(* The serve daemon: wire protocol totality (framing, request/response
   round-trips), deterministic admission shedding, per-tenant isolation
   (breaker, quarantine, cache namespaces), response byte-identity at
   any --jobs, the seeded mid-flight kill + recovery contract, unified
   exit codes, quarantine compaction and salvage observability. *)

module Pipeline = Aptget_core.Pipeline
module Watchdog = Aptget_core.Watchdog
module Quarantine = Aptget_core.Quarantine
module Breaker = Aptget_core.Breaker
module Workload = Aptget_workloads.Workload
module Micro = Aptget_workloads.Micro
module Profiler = Aptget_profile.Profiler
module Hints_file = Aptget_profile.Hints_file
module Crash = Aptget_store.Crash
module Journal = Aptget_store.Journal
module Atomic_file = Aptget_store.Atomic_file
module Metrics = Aptget_obs.Metrics
module Trace = Aptget_obs.Trace
module Frame = Aptget_serve.Frame
module Wire = Aptget_serve.Wire
module Exit_code = Aptget_serve.Exit_code
module Admission = Aptget_serve.Admission
module Tenant = Aptget_serve.Tenant
module Inflight = Aptget_serve.Inflight
module Handler = Aptget_serve.Handler
module Health = Aptget_serve.Health
module Server = Aptget_serve.Server
module Transport = Aptget_serve.Transport
module Net_faults = Aptget_serve.Net_faults
module Client = Aptget_serve.Client

let crash_seed =
  match Sys.getenv_opt "APTGET_CRASH_SEED" with
  | Some s -> ( try int_of_string s with Failure _ -> 0)
  | None -> 0

let crash_mode = if crash_seed land 1 = 0 then Crash.Clean else Crash.Torn

(* ---------------- workloads and spools ---------------- *)

let micro_params =
  { Micro.default_params with Micro.total = 16_384; table_words = 1 lsl 19 }

let micro_w ?(name = "micro") () = Micro.workload ~params:micro_params ~name ()

(* Same kernel as [micro] (so stale hints remap exactly), but every
   verification fails — the poisonous workload a tenant breaker must
   contain. *)
let broken_micro () =
  let w = micro_w ~name:"micro-broken" () in
  {
    w with
    Workload.build =
      (fun () ->
        let inst = w.Workload.build () in
        {
          inst with
          Workload.verify = (fun _ _ -> Error "always wrong (injected)");
        });
  }

let resolve = function
  | "micro" -> Some (micro_w ())
  | "micro-alt" -> Some (micro_w ~name:"micro-alt" ())
  | "micro-broken" -> Some (broken_micro ())
  | _ -> None

let handler_config = { Handler.resolve }

let server_config ?(capacity = 64) ?jobs ?(threshold = 3) ?(cooldown = 2) spool
    =
  {
    (Server.default_config ~spool) with
    Server.capacity;
    jobs;
    handler = handler_config;
    breaker = { Breaker.threshold; cooldown };
  }

(* One profiling run shared by every test that ships stale hints. *)
let micro_doc =
  lazy
    (let options = Profiler.default_options in
     Profiler.to_doc ~options (Pipeline.profile ~options (micro_w ())))

let req ?(tenant = "t-a") ?(workload = "micro") ?deadline ?floor ?(remap = true)
    ?hints ?program id =
  {
    Wire.req_id = id;
    tenant;
    workload;
    deadline_cycles = deadline;
    guard_floor = floor;
    remap;
    hints;
    program;
  }

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

let with_spool f =
  let dir = Filename.temp_file "aptget-serve-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Raw bytes straight onto the request queue: garbage, torn halves —
   the things a well-behaved [Server.submit] never writes. With [~file:
   "responses.q"], what an outside writer or a kill mid-append leaves on
   the response record. *)
let append_raw ?(file = "requests.q") spool bytes =
  let oc =
    open_out_gen
      [ Open_append; Open_creat; Open_binary ]
      0o644
      (Filename.concat spool file)
  in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes)

let read_file path =
  match Atomic_file.read ~path with
  | Ok b -> b
  | Error e -> Alcotest.failf "read %s: %s" path e

let responses_exn spool =
  match Server.responses ~spool with
  | Error e -> Alcotest.failf "no responses: %s" e
  | Ok rs ->
    List.map
      (function Ok r -> r | Error e -> Alcotest.failf "bad response: %s" e)
      rs

let response_for spool id =
  match List.find_opt (fun r -> r.Wire.rsp_id = id) (responses_exn spool) with
  | Some r -> r
  | None -> Alcotest.failf "no response for %s" id

(* Runs [f counter] with the metrics registry on and empty; [counter
   name] reads one merged counter (0 when never bumped). *)
let with_metrics f =
  Metrics.enable ();
  Metrics.reset ();
  Fun.protect ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
  @@ fun () ->
  f (fun name ->
      match List.assoc_opt name (Metrics.snapshot ()).Metrics.counters with
      | Some n -> n
      | None -> 0)

(* ---------------- frames ---------------- *)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame: encode/decode round-trips any payload"
    ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      (match Frame.decode ~buf:(Frame.encode a) ~pos:0 with
      | Ok (p, next) -> p = a && next = String.length (Frame.encode a)
      | Error _ -> false)
      &&
      let s = Frame.decode_stream (Frame.encode a ^ Frame.encode b) in
      s.Frame.frames = [ a; b ] && s.Frame.trailing = None
      && s.Frame.skipped = [])

let test_frame_truncation_total () =
  let payloads = [ "hello"; ""; "multi\nline\x00\xffbin" ] in
  let buf = String.concat "" (List.map Frame.encode payloads) in
  for cut = 0 to String.length buf do
    let s = Frame.decode_stream (String.sub buf 0 cut) in
    (* never raises (we got here), decodes only whole frames, and
       claims the whole prefix only when it really ended on a frame
       boundary *)
    Alcotest.(check bool)
      "frames are a prefix of the full list" true
      (List.length s.Frame.frames <= 3
      && List.for_all2
           (fun a b -> a = b)
           s.Frame.frames
           (List.filteri
              (fun i _ -> i < List.length s.Frame.frames)
              payloads));
    Alcotest.(check bool) "consumed within the cut" true (s.Frame.consumed <= cut);
    Alcotest.(check bool) "truncation is never a resync skip" true
      (s.Frame.skipped = []);
    if s.Frame.trailing = None then
      Alcotest.(check int) "no trailing => all bytes consumed" cut
        s.Frame.consumed
  done;
  let s = Frame.decode_stream buf in
  Alcotest.(check bool) "uncut stream decodes fully" true
    (s.Frame.frames = payloads && s.Frame.trailing = None)

let test_frame_corruption_detected () =
  let buf = Frame.encode "alpha" ^ Frame.encode "beta" in
  for i = 0 to String.length buf - 1 do
    let b = Bytes.of_string buf in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    let s = Frame.decode_stream (Bytes.to_string b) in
    (* the corrupted frame never decodes, and the damage is reported —
       as a resync skip (or, at the tail, an incomplete trailer) — but
       the *other* frame still comes through *)
    Alcotest.(check bool)
      (Printf.sprintf "flipped byte %d is detected" i)
      true
      (List.length s.Frame.frames < 2
      && (s.Frame.skipped <> [] || s.Frame.trailing <> None));
    Alcotest.(check bool)
      (Printf.sprintf "flipped byte %d surfaces no garbage payload" i)
      true
      (List.for_all (fun p -> p = "alpha" || p = "beta") s.Frame.frames)
  done

let test_frame_resync_recovers_suffix () =
  (* One corrupted region must not swallow the valid frames behind it:
     decode resyncs at the next magic and the queue loses only the
     damaged bytes. *)
  let garbage = String.make 24 '?' in
  let fake = "APTG" ^ String.make 16 'z' in
  let buf =
    garbage ^ Frame.encode "alpha" ^ fake ^ Frame.encode "beta" ^ garbage
  in
  let s = Frame.decode_stream buf in
  Alcotest.(check (list string))
    "both valid frames decode" [ "alpha"; "beta" ] s.Frame.frames;
  Alcotest.(check bool) "no trailing tear" true (s.Frame.trailing = None);
  Alcotest.(check int) "all bytes consumed" (String.length buf) s.Frame.consumed;
  Alcotest.(check int) "three skips" 3 (List.length s.Frame.skipped);
  Alcotest.(check int) "skipped exactly the garbage"
    (2 * String.length garbage + String.length fake)
    (Frame.skipped_bytes s);
  (* a short tail that merely *might* be an append in progress is
     trailing, not skipped *)
  let s2 = Frame.decode_stream (Frame.encode "alpha" ^ "APTG\x00to") in
  Alcotest.(check bool) "short tail stays trailing" true
    (s2.Frame.frames = [ "alpha" ]
    && s2.Frame.trailing <> None
    && s2.Frame.skipped = []
    && s2.Frame.consumed = String.length (Frame.encode "alpha"))

let test_frame_oversized () =
  (match Frame.encode (String.make (Frame.max_payload + 1) 'x') with
  | _ -> Alcotest.fail "oversized encode should raise"
  | exception Invalid_argument _ -> ());
  let huge = Printf.sprintf "APTG%08x%08x" 0 (Frame.max_payload + 1) in
  match Frame.decode ~buf:huge ~pos:0 with
  | Error (Frame.Malformed _) -> ()
  | Error (Frame.Incomplete _) ->
    Alcotest.fail "oversized length must be Malformed, not a wait-for-more"
  | Ok _ -> Alcotest.fail "oversized length decoded"

let test_frame_empty_stream () =
  let s = Frame.decode_stream "" in
  Alcotest.(check bool) "empty stream" true
    (s.Frame.frames = [] && s.Frame.consumed = 0 && s.Frame.trailing = None
    && s.Frame.skipped = [])

(* ---------------- wire ---------------- *)

let sample_doc =
  lazy
    (match
       Hints_file.doc_of_string
         (String.concat "\n"
            [
              "# aptget prefetch hints v2";
              "# provenance: program=3f21c7 schema=2 options=lbr:20000,k:5";
              "pc=2051 distance=12 site=inner sweep=1";
              "pc=11265 distance=3 site=outer sweep=7";
              "";
            ])
     with
    | Ok d -> d
    | Error e -> failwith ("sample_doc: " ^ e))

let check_body_roundtrip name body =
  match Wire.body_of_string (Wire.body_to_string body) with
  | Ok parsed -> Alcotest.(check bool) name true (parsed = body)
  | Error e -> Alcotest.failf "%s: %s" name e

let test_wire_request_roundtrip () =
  check_body_roundtrip "minimal request" (Wire.Run (req "r-1"));
  check_body_roundtrip "full request"
    (Wire.Run
       (req ~tenant:"acme-corp.2" ~workload:"micro-alt" ~deadline:4096
          ~floor:0.975 ~remap:false
          ~hints:(Lazy.force sample_doc)
          ~program:"func f\n\nld r1, [r2]\nret r1\n" "req-1.A_z"));
  check_body_roundtrip "shutdown" Wire.Shutdown

let test_wire_rejects () =
  let bad =
    [
      ("empty payload", "");
      ("bad magic", "# not a request\nid=a\n");
      ("trailing shutdown data", "# aptget serve shutdown v1\nextra\n");
      ("missing id", "# aptget serve request v1\ntenant=t\nworkload=w\n");
      ( "path-escape id",
        "# aptget serve request v1\nid=../evil\ntenant=t\nworkload=w\n" );
      ( "dot-leading id",
        "# aptget serve request v1\nid=.hidden\ntenant=t\nworkload=w\n" );
      ( "oversized tenant",
        Printf.sprintf "# aptget serve request v1\nid=a\ntenant=%s\nworkload=w\n"
          (String.make 65 'x') );
      ("unknown key", "# aptget serve request v1\nid=a\ntenant=t\nworkload=w\nfoo=1\n");
      ( "duplicate key",
        "# aptget serve request v1\nid=a\nid=b\ntenant=t\nworkload=w\n" );
      ( "zero deadline",
        "# aptget serve request v1\nid=a\ntenant=t\nworkload=w\ndeadline-cycles=0\n" );
      ( "hex deadline",
        "# aptget serve request v1\nid=a\ntenant=t\nworkload=w\ndeadline-cycles=0x10\n" );
      ( "negative floor",
        "# aptget serve request v1\nid=a\ntenant=t\nworkload=w\nguard-floor=-1\n" );
      ( "non-boolean remap",
        "# aptget serve request v1\nid=a\ntenant=t\nworkload=w\nremap=maybe\n" );
      ("blank header line", "# aptget serve request v1\n\nid=a\ntenant=t\nworkload=w\n");
      ( "unknown section",
        "# aptget serve request v1\nid=a\ntenant=t\nworkload=w\n--- extra\n" );
      ( "duplicate section",
        "# aptget serve request v1\nid=a\ntenant=t\nworkload=w\n--- program\nx\n--- program\ny\n" );
      ( "unparseable hints",
        "# aptget serve request v1\nid=a\ntenant=t\nworkload=w\n--- hints\nnot hints\n" );
    ]
  in
  List.iter
    (fun (name, payload) ->
      Alcotest.(check bool) name true
        (Result.is_error (Wire.body_of_string payload)))
    bad

let test_wire_response_roundtrip () =
  let roundtrip name r =
    match Wire.response_of_string (Wire.response_to_string r) with
    | Ok parsed -> Alcotest.(check bool) name true (parsed = r)
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  roundtrip "empty reason and body"
    {
      Wire.rsp_id = "a";
      rsp_tenant = "t";
      rsp_status = Wire.Ok_;
      rsp_reason = "";
      rsp_body = "";
    };
  roundtrip "nasty reason and marker-bearing body"
    {
      Wire.rsp_id = "req-9";
      rsp_tenant = "acme";
      rsp_status = Wire.Failed;
      rsp_reason = "line one\nline \"two\"\twith\\escapes";
      rsp_body = "result text\n--- body\nnested marker, raw\nno trailing newline";
    };
  List.iter
    (fun st ->
      Alcotest.(check bool)
        ("status round-trips: " ^ Wire.status_to_string st)
        true
        (Wire.status_of_string (Wire.status_to_string st) = Some st))
    [
      Wire.Ok_;
      Wire.Overloaded;
      Wire.Timed_out;
      Wire.Malformed;
      Wire.Rejected;
      Wire.Failed;
      Wire.Aborted;
    ]

let prop_response_reason_roundtrip =
  QCheck.Test.make ~name:"wire: any reason string survives the escaping"
    ~count:200 QCheck.string (fun reason ->
      let r =
        {
          Wire.rsp_id = "a";
          rsp_tenant = "t";
          rsp_status = Wire.Rejected;
          rsp_reason = reason;
          rsp_body = "";
        }
      in
      Wire.response_of_string (Wire.response_to_string r) = Ok r)

(* ---------------- exit codes ---------------- *)

let test_exit_code_pins () =
  let pins =
    [
      (Exit_code.Ok_, 0, "ok");
      (Exit_code.Degraded, 1, "degraded");
      (Exit_code.Usage, 2, "usage");
      (Exit_code.Crashed, 3, "crashed");
      (Exit_code.Overloaded, 4, "overloaded");
    ]
  in
  List.iter
    (fun (t, n, s) ->
      Alcotest.(check int) ("to_int " ^ s) n (Exit_code.to_int t);
      Alcotest.(check string) "to_string" s (Exit_code.to_string t);
      Alcotest.(check bool) "of_int round-trips" true
        (Exit_code.of_int n = Some t))
    pins;
  Alcotest.(check bool) "of_int rejects strangers" true
    (Exit_code.of_int 5 = None);
  Alcotest.(check bool) "overloaded dominates" true
    (Exit_code.worst Exit_code.Overloaded Exit_code.Crashed
    = Exit_code.Overloaded);
  Alcotest.(check bool) "crashed beats degraded" true
    (Exit_code.worst Exit_code.Degraded Exit_code.Crashed = Exit_code.Crashed);
  Alcotest.(check bool) "ok is neutral" true
    (Exit_code.worst Exit_code.Ok_ Exit_code.Degraded = Exit_code.Degraded)

(* ---------------- admission ---------------- *)

let test_admission_sheds_deterministically () =
  (match Admission.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 should be rejected"
  | exception Invalid_argument _ -> ());
  let q = Admission.create ~capacity:3 in
  let verdicts = List.init 10 (fun i -> Admission.offer q i) in
  let expected =
    List.init 10 (fun i ->
        if i < 3 then Admission.Admitted else Admission.Shed)
  in
  Alcotest.(check bool) "first capacity offers admitted, rest shed" true
    (verdicts = expected);
  Alcotest.(check int) "admitted count" 3 (Admission.admitted q);
  Alcotest.(check int) "shed count" 7 (Admission.shed q);
  let rec drain acc =
    match Admission.take q with Some x -> drain (x :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2 ] (drain []);
  Alcotest.(check int) "drained" 0 (Admission.depth q)

(* ---------------- breaker ---------------- *)

let test_breaker_policy () =
  let b = Breaker.create ~config:{ Breaker.threshold = 2; cooldown = 2 } () in
  let run_fail () =
    match Breaker.acquire b with
    | Breaker.Run | Breaker.Probe -> Breaker.record b ~ok:false
    | Breaker.Refuse _ -> Alcotest.fail "unexpected refusal"
  in
  run_fail ();
  run_fail ();
  (match Breaker.state b with
  | Breaker.Open 2 -> ()
  | s ->
    Alcotest.failf "expected Open 2 at threshold, got %s"
      (Breaker.state_to_string s));
  (match Breaker.acquire b with
  | Breaker.Refuse n -> Alcotest.(check int) "one cooldown slot left" 1 n
  | _ -> Alcotest.fail "open breaker must refuse");
  (match Breaker.acquire b with
  | Breaker.Refuse n -> Alcotest.(check int) "last refusal" 0 n
  | _ -> Alcotest.fail "open breaker must refuse");
  (match Breaker.acquire b with
  | Breaker.Probe -> Breaker.record b ~ok:true
  | _ -> Alcotest.fail "cooldown spent: expected a half-open probe");
  (match Breaker.state b with
  | Breaker.Closed -> ()
  | s ->
    Alcotest.failf "probe success should re-close, got %s"
      (Breaker.state_to_string s));
  Alcotest.(check int) "opened once" 1 (Breaker.opened_count b)

(* ---------------- tenants ---------------- *)

let test_tenant_registry () =
  with_spool @@ fun root ->
  let reg = Tenant.registry ~root () in
  (match Tenant.find_or_create reg "../evil" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "path-escaping tenant id accepted");
  let a =
    match Tenant.find_or_create reg "acme" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let a' =
    match Tenant.find_or_create reg "acme" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "same tenant instance (breaker state shared)" true
    (a == a');
  let b =
    match Tenant.find_or_create reg "globex" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "disjoint namespaces" true (a.Tenant.dir <> b.Tenant.dir);
  Alcotest.(check bool) "quarantines are per-tenant files" true
    (Quarantine.path a.Tenant.quarantine <> Quarantine.path b.Tenant.quarantine);
  Alcotest.(check bool) "cache scopes namespace by tenant id" true
    (match (a.Tenant.cache, b.Tenant.cache) with
    | Some ca, Some cb ->
      ca.Aptget_core.Meas_cache.namespace = "acme"
      && cb.Aptget_core.Meas_cache.namespace = "globex"
    | _ -> false);
  Alcotest.(check (list string)) "known, sorted" [ "acme"; "globex" ]
    (List.map (fun t -> t.Tenant.id) (Tenant.known reg));
  let no_cache = Tenant.registry ~root ~cache:false () in
  match Tenant.find_or_create no_cache "acme" with
  | Ok t ->
    Alcotest.(check bool) "cache disabled => no scope" true
      (t.Tenant.cache = None)
  | Error e -> Alcotest.fail e

(* ---------------- inflight journal ---------------- *)

let test_inflight_replay () =
  with_spool @@ fun dir ->
  let path = Filename.concat dir "serve.journal" in
  let t, orphans, _ = Inflight.open_ ~path () in
  Alcotest.(check int) "fresh journal: no orphans" 0 (List.length orphans);
  Inflight.admit t ~id:"a" ~tenant:"t1";
  Inflight.admit t ~id:"b" ~tenant:"t2";
  Inflight.finish t ~id:"a" ~status:"ok";
  Inflight.close t;
  let t2, orphans, recovery = Inflight.open_ ~path () in
  Alcotest.(check int) "nothing salvaged" 0 recovery.Journal.dropped;
  Alcotest.(check bool) "b is the orphan" true
    (List.map (fun o -> (o.Inflight.o_id, o.Inflight.o_tenant)) orphans
    = [ ("b", "t2") ]);
  Alcotest.(check bool) "a finished ok" true
    (Inflight.finished t2 ~id:"a" = Some "ok");
  Alcotest.(check bool) "b not finished" true
    (Inflight.finished t2 ~id:"b" = None);
  Inflight.close t2

let test_inflight_torn_admit_salvaged () =
  with_spool @@ fun dir ->
  let path = Filename.concat dir "serve.journal" in
  let crash = Crash.after_writes ~mode:Crash.Torn 2 in
  let t, _, _ = Inflight.open_ ~crash ~path () in
  Inflight.admit t ~id:"a" ~tenant:"t1";
  (match Inflight.admit t ~id:"b" ~tenant:"t1" with
  | () -> Alcotest.fail "crash plan did not fire"
  | exception Crash.Crashed _ -> ());
  let t2, orphans, recovery = Inflight.open_ ~path () in
  Alcotest.(check int) "torn admit dropped" 1 recovery.Journal.dropped;
  Alcotest.(check bool) "only the intact admit is an orphan" true
    (List.map (fun o -> o.Inflight.o_id) orphans = [ "a" ]);
  Inflight.close t2

(* ---------------- server: happy path + determinism ---------------- *)

let submit_batch spool =
  let doc = Lazy.force micro_doc in
  List.iter
    (fun (id, tenant, workload) ->
      Server.submit ~spool (Wire.Run (req ~tenant ~workload ~hints:doc id)))
    [
      ("a1", "t-a", "micro");
      ("a2", "t-a", "micro");
      ("b1", "t-b", "micro-alt");
      ("b2", "t-b", "micro");
    ];
  Server.submit ~spool Wire.Shutdown

let test_serve_identity_across_jobs () =
  with_spool @@ fun s1 ->
  with_spool @@ fun s2 ->
  with_spool @@ fun oneshot ->
  submit_batch s1;
  submit_batch s2;
  let r1 = Server.serve (Server.create (server_config ~jobs:1 s1)) in
  let r2 = Server.drain (Server.create (server_config ~jobs:4 s2)) in
  Alcotest.(check bool) "graceful drain" true
    (r1.Server.s_drained && r2.Server.s_drained);
  Alcotest.(check int) "all ok at --jobs 1" 4 r1.Server.s_ok;
  Alcotest.(check int) "all ok at --jobs 4" 4 r2.Server.s_ok;
  Alcotest.(check bool) "exit 0" true
    (Server.exit_code r1 = Exit_code.Ok_ && Server.exit_code r2 = Exit_code.Ok_);
  Alcotest.(check string) "responses byte-identical at any --jobs"
    (read_file (Filename.concat s1 "responses.q"))
    (read_file (Filename.concat s2 "responses.q"));
  Alcotest.(check (list string)) "responses in arrival order"
    [ "a1"; "a2"; "b1"; "b2" ]
    (List.map (fun r -> r.Wire.rsp_id) (responses_exn s1));
  (* the daemon's body is byte-identical to the one-shot path *)
  let reg = Tenant.registry ~root:oneshot () in
  let tenant =
    match Tenant.find_or_create reg "t-a" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let o =
    Handler.run handler_config ~tenant
      (req ~tenant:"t-a" ~hints:(Lazy.force micro_doc) "a1")
  in
  Alcotest.(check bool) "one-shot succeeded" true
    (o.Handler.h_status = Wire.Ok_);
  Alcotest.(check string) "daemon body == one-shot body" o.Handler.h_body
    (response_for s1 "a1").Wire.rsp_body;
  (* graceful stop left an ok health record *)
  Alcotest.(check bool) "health probe ok after graceful drain" true
    (Health.probe ~spool:s1 = Exit_code.Ok_);
  Alcotest.(check bool) "health probe crashed without a spool" true
    (Health.probe ~spool:(Filename.concat s1 "no-such-dir") = Exit_code.Crashed)

let test_serve_saturation_sheds_exactly () =
  with_spool @@ fun spool ->
  let doc = Lazy.force micro_doc in
  for i = 1 to 6 do
    Server.submit ~spool
      (Wire.Run (req ~hints:doc (Printf.sprintf "r%d" i)))
  done;
  Server.submit ~spool Wire.Shutdown;
  let r = Server.drain (Server.create (server_config ~capacity:2 spool)) in
  Alcotest.(check int) "exactly capacity admitted" 2 r.Server.s_ok;
  Alcotest.(check int) "exactly the overflow shed" 4 r.Server.s_shed;
  Alcotest.(check bool) "overloaded exit" true
    (Server.exit_code r = Exit_code.Overloaded);
  let statuses =
    List.map (fun x -> (x.Wire.rsp_id, x.Wire.rsp_status)) (responses_exn spool)
  in
  let expected =
    List.init 6 (fun i ->
        ( Printf.sprintf "r%d" (i + 1),
          if i < 2 then Wire.Ok_ else Wire.Overloaded ))
  in
  Alcotest.(check bool) "first-come first-served, in order" true
    (statuses = expected);
  List.iter
    (fun x ->
      if x.Wire.rsp_status = Wire.Overloaded then
        Alcotest.(check string) "shed reason names the capacity"
          "admission queue full (capacity 2)" x.Wire.rsp_reason)
    (responses_exn spool)

let test_serve_tenant_isolation () =
  with_spool @@ fun spool ->
  let doc = Lazy.force micro_doc in
  List.iter
    (fun (id, tenant, workload) ->
      Server.submit ~spool (Wire.Run (req ~tenant ~workload ~hints:doc id)))
    [
      ("x1", "t-bad", "micro-broken");
      ("x2", "t-bad", "micro-broken");
      ("x3", "t-bad", "micro-broken");
      ("g1", "t-good", "micro");
      ("g2", "t-good", "micro");
    ];
  let r =
    Server.drain
      (Server.create (server_config ~threshold:2 ~cooldown:1 spool))
  in
  let status id = (response_for spool id).Wire.rsp_status in
  Alcotest.(check bool) "failures stay failures" true
    (status "x1" = Wire.Failed && status "x2" = Wire.Failed);
  Alcotest.(check bool) "tripped breaker refuses the third" true
    (status "x3" = Wire.Rejected);
  Alcotest.(check string) "refusal names the breaker"
    "tenant circuit breaker open (0 refusal(s) left)"
    (response_for spool "x3").Wire.rsp_reason;
  Alcotest.(check bool) "the other tenant is untouched" true
    (status "g1" = Wire.Ok_ && status "g2" = Wire.Ok_);
  Alcotest.(check int) "counts" 2 r.Server.s_ok;
  Alcotest.(check int) "failed counts" 2 r.Server.s_failed;
  Alcotest.(check int) "rejected counts" 1 r.Server.s_rejected;
  Alcotest.(check bool) "degraded exit" true
    (Server.exit_code r = Exit_code.Degraded);
  Alcotest.(check bool) "tenant subtrees exist" true
    (Sys.is_directory (Filename.concat spool "tenants/t-bad")
    && Sys.is_directory (Filename.concat spool "tenants/t-good"))

let test_serve_deadline_times_out () =
  with_spool @@ fun spool ->
  (* no hints: the fresh profiling run must blow the 1000-cycle
     deadline; a later, hinted request in the same batch still runs *)
  Server.submit ~spool (Wire.Run (req ~deadline:1_000 "slow"));
  Server.submit ~spool
    (Wire.Run (req ~hints:(Lazy.force micro_doc) "fast"));
  let r = Server.drain (Server.create (server_config spool)) in
  Alcotest.(check bool) "deadline fired" true
    ((response_for spool "slow").Wire.rsp_status = Wire.Timed_out);
  Alcotest.(check bool) "daemon survives the timeout" true
    ((response_for spool "fast").Wire.rsp_status = Wire.Ok_);
  Alcotest.(check int) "timed out count" 1 r.Server.s_timed_out;
  Alcotest.(check bool) "degraded exit" true
    (Server.exit_code r = Exit_code.Degraded)

let test_serve_malformed_duplicate_draining () =
  with_spool @@ fun spool ->
  let doc = Lazy.force micro_doc in
  append_raw spool (Frame.encode "this is not a wire payload");
  Server.submit ~spool (Wire.Run (req ~hints:doc "r1"));
  Server.submit ~spool (Wire.Run (req ~hints:doc "r1"));
  Server.submit ~spool Wire.Shutdown;
  Server.submit ~spool (Wire.Run (req ~hints:doc "late"));
  append_raw spool "APTG\x00torn";
  let r = Server.drain (Server.create (server_config spool)) in
  Alcotest.(check int) "whole frames seen" 5 r.Server.s_frames;
  Alcotest.(check int) "torn tail counted" 1 r.Server.s_torn;
  Alcotest.(check int) "garbage answered as malformed" 1 r.Server.s_malformed;
  Alcotest.(check int) "one ran" 1 r.Server.s_ok;
  Alcotest.(check int) "duplicate id + post-shutdown rejected" 2
    r.Server.s_rejected;
  Alcotest.(check bool) "shutdown processed" true r.Server.s_drained;
  let statuses =
    List.map (fun x -> (x.Wire.rsp_id, x.Wire.rsp_status)) (responses_exn spool)
  in
  Alcotest.(check bool) "responses in arrival order, synthetic id for garbage"
    true
    (statuses
    = [
        ("frame-1", Wire.Malformed);
        ("r1", Wire.Ok_);
        ("r1", Wire.Rejected);
        ("late", Wire.Rejected);
      ]);
  (* the torn tail may be an append still in progress: it survives the
     truncation, only the consumed prefix is dropped *)
  Alcotest.(check string) "only the torn tail survives the drain" "APTG\x00torn"
    (read_file (Filename.concat spool "requests.q"))

let test_serve_preserves_inflight_append () =
  with_spool @@ fun spool ->
  let doc = Lazy.force micro_doc in
  Server.submit ~spool (Wire.Run (req ~hints:doc "r1"));
  let f2 = Frame.encode (Wire.body_to_string (Wire.Run (req ~hints:doc "r2"))) in
  let cut = String.length f2 / 2 in
  (* a client's append caught halfway: the classic race the old
     truncate-to-empty destroyed *)
  append_raw spool (String.sub f2 0 cut);
  let srv = Server.create (server_config spool) in
  let r1 = Server.drain srv in
  Alcotest.(check int) "the whole frame ran" 1 r1.Server.s_ok;
  Alcotest.(check int) "tail observed as torn" 1 r1.Server.s_torn;
  Alcotest.(check string) "half-written frame survives the truncation"
    (String.sub f2 0 cut)
    (read_file (Filename.concat spool "requests.q"));
  (* an unchanged tail is not re-counted by the same instance *)
  let r_idle = Server.drain srv in
  Alcotest.(check bool) "idle drain: nothing new, tear not re-counted" true
    (r_idle.Server.s_frames = 0 && r_idle.Server.s_torn = 0);
  (* the client finishes its append; the request is served *)
  append_raw spool (String.sub f2 cut (String.length f2 - cut));
  let r2 = Server.drain srv in
  Alcotest.(check int) "completed append decodes and runs" 1 r2.Server.s_ok;
  Alcotest.(check int) "no tear left" 0 r2.Server.s_torn;
  Alcotest.(check bool) "r2 answered ok" true
    ((response_for spool "r2").Wire.rsp_status = Wire.Ok_);
  Alcotest.(check string) "queue empty once the append completed" ""
    (read_file (Filename.concat spool "requests.q"))

let test_serve_resyncs_past_corruption () =
  with_spool @@ fun spool ->
  let doc = Lazy.force micro_doc in
  (* corruption *ahead* of a valid request: the old stop-at-first-error
     decode silently dropped r1; resync must answer it *)
  append_raw spool (String.make 32 '!');
  Server.submit ~spool (Wire.Run (req ~hints:doc "r1"));
  let r = Server.drain (Server.create (server_config spool)) in
  Alcotest.(check int) "request behind the garbage ran" 1 r.Server.s_ok;
  Alcotest.(check int) "one corrupt region skipped" 1 r.Server.s_resynced;
  Alcotest.(check bool) "r1 answered ok" true
    ((response_for spool "r1").Wire.rsp_status = Wire.Ok_);
  Alcotest.(check bool) "degraded exit (corruption is visible)" true
    (Server.exit_code r = Exit_code.Degraded);
  Alcotest.(check string) "garbage consumed, queue empty" ""
    (read_file (Filename.concat spool "requests.q"))

let test_serve_duplicate_id_across_drains () =
  with_spool @@ fun spool ->
  let doc = Lazy.force micro_doc in
  Server.submit ~spool (Wire.Run (req ~hints:doc "a1"));
  let r1 = Server.drain (Server.create (server_config spool)) in
  Alcotest.(check int) "first submission runs" 1 r1.Server.s_ok;
  (* the clean drain settled every journal record, so the journal was
     compacted to empty *)
  let j, orphans, recovery =
    Inflight.open_ ~path:(Filename.concat spool "serve.journal") ()
  in
  Inflight.close j;
  Alcotest.(check bool) "journal compacted after a clean drain" true
    (orphans = [] && recovery.Journal.records = []
    && recovery.Journal.dropped = 0);
  (* reusing the id is not crash recovery: it must be rejected, not
     silently re-executed with a second Ok response *)
  Server.submit ~spool (Wire.Run (req ~hints:doc "a1"));
  let r2 = Server.drain (Server.create (server_config spool)) in
  Alcotest.(check bool) "duplicate rejected, not resumed or re-run" true
    (r2.Server.s_ok = 0 && r2.Server.s_rejected = 1 && r2.Server.s_resumed = 0);
  let a1 =
    List.map
      (fun x -> x.Wire.rsp_status)
      (List.filter (fun x -> x.Wire.rsp_id = "a1") (responses_exn spool))
  in
  Alcotest.(check bool) "one Ok answer, then one rejection" true
    (a1 = [ Wire.Ok_; Wire.Rejected ])

(* A malformed frame's answer carries the synthetic id [frame-N]; a
   client may later choose that id, and its request is new work, not a
   duplicate of the garbage. *)
let test_serve_malformed_id_not_answered () =
  with_spool @@ fun spool ->
  append_raw spool (Frame.encode "this is not a wire payload");
  let srv = Server.create (server_config spool) in
  let r1 = Server.drain srv in
  Alcotest.(check int) "garbage answered as malformed" 1 r1.Server.s_malformed;
  Alcotest.(check string) "synthetic id" "frame-1"
    (response_for spool "frame-1").Wire.rsp_id;
  let submit_and_drain srv =
    Server.submit ~spool
      (Wire.Run (req ~hints:(Lazy.force micro_doc) "frame-1"));
    Server.drain srv
  in
  let r2 = submit_and_drain srv in
  Alcotest.(check bool) "the same instance runs it" true
    (r2.Server.s_ok = 1 && r2.Server.s_rejected = 0);
  (* a new incarnation indexes the file from scratch: the Ok answer is
     now the one that counts *)
  let r3 = submit_and_drain (Server.create (server_config spool)) in
  Alcotest.(check bool) "reuse of a real answer is still rejected" true
    (r3.Server.s_ok = 0 && r3.Server.s_rejected = 1)

(* The answered-id index is parsed from responses.q once per instance,
   not once per batch: the deterministic stand-in for "a warm batch
   costs the same however much history is recorded". An outside write
   changes the file's stat, and the next batch reloads and sees it. *)
let test_serve_index_loaded_once () =
  with_spool @@ fun spool ->
  with_metrics @@ fun counter ->
  let srv = Server.create (server_config spool) in
  let batches = 6 in
  for i = 1 to batches do
    (* an unknown workload is answered [rejected] without simulating *)
    Server.submit ~spool
      (Wire.Run (req ~workload:"no-such-kernel" (Printf.sprintf "n%d" i)));
    let r = Server.drain srv in
    Alcotest.(check int) (Printf.sprintf "batch %d answered" i) 1
      r.Server.s_rejected
  done;
  Alcotest.(check int) "responses.q parsed once" 1
    (counter "serve.responses.loads");
  Alcotest.(check int) "every answer recorded" batches
    (List.length (responses_exn spool));
  let dup_reason =
    "request id already answered in a previous drain; use a fresh id"
  in
  let last_reason id =
    (List.hd
       (List.rev
          (List.filter (fun r -> r.Wire.rsp_id = id) (responses_exn spool))))
      .Wire.rsp_reason
  in
  Server.submit ~spool (Wire.Run (req ~workload:"no-such-kernel" "n3"));
  ignore (Server.drain srv);
  Alcotest.(check string) "an appended id is a duplicate, from memory"
    dup_reason (last_reason "n3");
  Alcotest.(check int) "still parsed once" 1 (counter "serve.responses.loads");
  append_raw ~file:"responses.q" spool
    (Frame.encode
       (Wire.response_to_string
          {
            Wire.rsp_id = "outside-1";
            rsp_tenant = "t-a";
            rsp_status = Wire.Ok_;
            rsp_reason = "";
            rsp_body = "written by another process";
          }));
  Server.submit ~spool (Wire.Run (req ~workload:"no-such-kernel" "outside-1"));
  ignore (Server.drain srv);
  Alcotest.(check int) "the outside write forced a reload" 2
    (counter "serve.responses.loads");
  Alcotest.(check string) "the outside answer is seen as a duplicate"
    dup_reason (last_reason "outside-1")

(* A kill inside the response append: the journal says done, the answer
   is half a frame. The next drain cuts the half frame off, re-executes
   the request, and leaves a record that decodes whole. *)
let test_serve_torn_response_tail () =
  with_spool @@ fun spool ->
  with_metrics @@ fun counter ->
  let doc = Lazy.force micro_doc in
  Server.submit ~spool (Wire.Run (req ~hints:doc "r0"));
  ignore (Server.drain (Server.create (server_config spool)));
  Server.submit ~spool (Wire.Run (req ~hints:doc "r1"));
  let j, _, _ =
    Inflight.open_ ~path:(Filename.concat spool "serve.journal") ()
  in
  Inflight.admit j ~id:"r1" ~tenant:"t-a";
  Inflight.finish j ~id:"r1" ~status:"ok";
  Inflight.close j;
  let lost =
    Frame.encode
      (Wire.response_to_string
         { (response_for spool "r0") with Wire.rsp_id = "r1" })
  in
  append_raw ~file:"responses.q" spool
    (String.sub lost 0 (String.length lost / 2));
  let r = Server.drain (Server.create (server_config spool)) in
  Alcotest.(check int) "re-executed as crash recovery" 1 r.Server.s_resumed;
  Alcotest.(check int) "answered ok" 1 r.Server.s_ok;
  let s =
    Frame.decode_stream (read_file (Filename.concat spool "responses.q"))
  in
  Alcotest.(check int) "no skipped regions" 0 (List.length s.Frame.skipped);
  Alcotest.(check bool) "no torn tail" true (s.Frame.trailing = None);
  Alcotest.(check (list string)) "one answer each" [ "r0"; "r1" ]
    (List.map (fun x -> x.Wire.rsp_id) (responses_exn spool));
  Alcotest.(check int) "store.salvage.responses" 1
    (counter "store.salvage.responses");
  match Health.read ~spool with
  | Error e -> Alcotest.fail e
  | Ok h ->
    Alcotest.(check (option int)) "health file reports the repair" (Some 1)
      (List.assoc_opt "responses" h.Health.i_salvage)

(* Tracing splits a batch into the daemon's own stages and changes no
   response byte. *)
let test_serve_batch_spans () =
  with_spool @@ fun plain ->
  with_spool @@ fun traced ->
  let run spool =
    Server.submit ~spool (Wire.Run (req ~hints:(Lazy.force micro_doc) "s1"));
    ignore (Server.drain (Server.create (server_config spool)))
  in
  run plain;
  Trace.reset ();
  Trace.enable ();
  let spans =
    Fun.protect
      ~finally:(fun () ->
        Trace.disable ();
        Trace.reset ())
      (fun () ->
        run traced;
        Trace.spans ())
  in
  Alcotest.(check string) "responses byte-identical with tracing on"
    (read_file (Filename.concat plain "responses.q"))
    (read_file (Filename.concat traced "responses.q"));
  let batch =
    match List.filter (fun sp -> sp.Trace.name = "serve.batch") spans with
    | [ b ] -> b
    | l -> Alcotest.failf "%d serve.batch spans" (List.length l)
  in
  let children =
    List.filter_map
      (fun sp ->
        if sp.Trace.parent = Some batch.Trace.id then Some sp.Trace.name
        else None)
      spans
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is a child of serve.batch") true
        (List.mem name children))
    [
      "serve.journal.open";
      "serve.index";
      "serve.journal.admit";
      "serve.request";
      "serve.append";
      "serve.compact";
      "serve.health";
    ]

(* ---------------- server: kill mid-flight, recover ---------------- *)

let test_serve_crash_recovery () =
  with_spool @@ fun spool ->
  submit_batch spool;
  (* 4 admits + 4 dones = 8 guarded journal writes in the first drain:
     a kill point in [1, 8] always fires mid-batch *)
  let crash =
    Crash.seeded_after_writes ~mode:crash_mode ~seed:crash_seed ~max_writes:8 ()
  in
  let srv = Server.create (server_config spool) in
  (match Server.drain ~crash srv with
  | _ -> Alcotest.fail "crash plan did not fire"
  | exception Crash.Crashed _ -> ());
  Alcotest.(check bool) "plan fired" true (Crash.crashed crash);
  Server.stop srv ~code:Exit_code.Crashed;
  Alcotest.(check bool) "health shows the crash" true
    (Health.probe ~spool = Exit_code.Crashed);
  (* next incarnation: same spool, fresh process state *)
  let r = Server.drain (Server.create (server_config spool)) in
  Alcotest.(check bool) "recovery drain completes" true r.Server.s_drained;
  let rsps = responses_exn spool in
  Alcotest.(check (list string)) "every request answered exactly once"
    [ "a1"; "a2"; "b1"; "b2" ]
    (List.sort compare (List.map (fun x -> x.Wire.rsp_id) rsps));
  List.iter
    (fun x ->
      Alcotest.(check bool)
        (x.Wire.rsp_id ^ " recovered or cleanly aborted")
        true
        (match x.Wire.rsp_status with
        | Wire.Ok_ | Wire.Aborted -> true
        | _ -> false))
    rsps;
  let aborted =
    List.length (List.filter (fun x -> x.Wire.rsp_status = Wire.Aborted) rsps)
  in
  Alcotest.(check int) "report counts the aborts" aborted r.Server.s_aborted;
  (* the journal and both tenants' stores ended parseable *)
  let t, orphans, recovery =
    Inflight.open_ ~path:(Filename.concat spool "serve.journal") ()
  in
  Inflight.close t;
  Alcotest.(check int) "no orphans survive recovery" 0 (List.length orphans);
  Alcotest.(check int) "journal parses clean" 0 recovery.Journal.dropped;
  List.iter
    (fun tenant ->
      let qp = Filename.concat spool ("tenants/" ^ tenant ^ "/quarantine") in
      if Sys.file_exists qp then
        let q = Quarantine.create ~path:qp () in
        Alcotest.(check int)
          (tenant ^ " quarantine parses clean")
          0
          (List.length (Quarantine.load_errors q)))
    [ "t-a"; "t-b" ];
  (* a third drain finds nothing left to do *)
  let r3 = Server.drain (Server.create (server_config spool)) in
  Alcotest.(check bool) "steady state" true
    (r3.Server.s_frames = 0 && r3.Server.s_aborted = 0)

(* ---------------- warm path: the fingerprint memo ---------------- *)

(* One workload record whose builds are counted; [resolve] hands out
   that same record every time, as [Suite.find] does. *)
let counted () =
  let builds = Atomic.make 0 in
  let w = micro_w ~name:"micro-counted" () in
  let w =
    {
      w with
      Workload.build =
        (fun () ->
          Atomic.incr builds;
          w.Workload.build ());
    }
  in
  (w, builds)

let tenant_in root id =
  match Tenant.find_or_create (Tenant.registry ~root ()) id with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let ok_body (o : Handler.outcome) =
  if o.Handler.h_status <> Wire.Ok_ then
    Alcotest.failf "request failed: %s %s"
      (Wire.status_to_string o.Handler.h_status)
      o.Handler.h_reason;
  o.Handler.h_body

(* The [program=] field of a body's first line, and its baseline line. *)
let program_of body =
  let first = List.hd (String.split_on_char '\n' body) in
  List.nth (String.split_on_char '=' first) 3

let baseline_of body =
  List.find
    (fun l -> String.length l > 8 && String.sub l 0 8 = "baseline")
    (String.split_on_char '\n' body)

let hex_of_func f =
  Fingerprint.hex (Fingerprint.fingerprint f).Fingerprint.program

let test_warm_request_builds_nothing () =
  with_spool @@ fun root ->
  let w, builds = counted () in
  let config =
    { Handler.resolve = (fun _ -> Some w) }
  in
  let tenant = tenant_in root "t-warm" in
  let ask id =
    ok_body
      (Handler.run config ~tenant
         (req ~workload:w.Workload.name ~hints:(Lazy.force micro_doc) id))
  in
  let cold = ask "cold" in
  let after_cold = Atomic.get builds in
  Alcotest.(check bool) "the cold request built" true (after_cold > 0);
  let warm = ask "warm" in
  Alcotest.(check int) "the warm request built nothing" after_cold
    (Atomic.get builds);
  Alcotest.(check string) "warm body == cold body" cold warm

let test_memo_does_not_alias_programs () =
  with_spool @@ fun root ->
  let w = micro_w ~name:"micro-shipped" () in
  let current = ref w in
  let config =
    { Handler.resolve = (fun _ -> Some !current) }
  in
  let tenant = tenant_in root "t-ship" in
  let doc = Lazy.force micro_doc in
  let ask ?program id =
    ok_body
      (Handler.run config ~tenant
         (req ~workload:w.Workload.name ~hints:doc ?program id))
  in
  let suite = ask "suite" in
  let suite_func = (w.Workload.build ()).Workload.func in
  Alcotest.(check string) "suite program= is a fresh build's"
    (hex_of_func suite_func) (program_of suite);
  (* the same name, shipping its own (padded) program *)
  let shipped_func = Mutate.pad_entry (w.Workload.build ()).Workload.func in
  let text = Printer.func_to_string shipped_func in
  let shipped = ask ~program:text "shipped" in
  Alcotest.(check string) "shipped program= is the shipped IR's"
    (hex_of_func (Parser.func_exn text))
    (program_of shipped);
  Alcotest.(check bool) "and differs from the suite program" true
    (program_of shipped <> program_of suite);
  Alcotest.(check bool) "not answered from the suite's cache entry" true
    (baseline_of shipped <> baseline_of suite);
  Alcotest.(check string) "the suite workload still answers as before" suite
    (ask "suite-again");
  (* a resolve that returns a new record under the same name *)
  current :=
    {
      w with
      Workload.build =
        (fun () ->
          let inst = w.Workload.build () in
          { inst with Workload.func = Mutate.pad_entry inst.Workload.func });
    };
  Alcotest.(check string) "a new record gets a fresh fingerprint"
    (hex_of_func shipped_func)
    (program_of (ask "new-record"))

(* [f] with a store of 1 after every load: the program overwrites the
   very words it reads. *)
let with_stores (f : Ir.func) =
  let f = Ir.copy_func f in
  Array.iter
    (fun (b : Ir.block) ->
      b.Ir.instrs <-
        Array.concat
          (List.map
             (fun (i : Ir.instr) ->
               match i.Ir.kind with
               | Ir.Load a ->
                 [| i; { Ir.dst = Ir.no_dst; kind = Ir.Store (a, Ir.Imm 1) } |]
               | _ -> [| i |])
             (Array.to_list b.Ir.instrs)))
    f.Ir.blocks;
  f

(* A store-free suite record hands out aliases of one memory image. A
   shipped program that stores into it must copy on write: the plain
   workload, asked for next under a new id, answers exactly as it does
   from a daemon that never saw the storing program. *)
let test_shipped_store_does_not_leak () =
  let doc = Lazy.force micro_doc in
  let ask w ?program root id =
    let config =
      { Handler.resolve = (fun _ -> Some w) }
    in
    Handler.run config ~tenant:(tenant_in root "t-cow")
      (req ~workload:w.Workload.name ~hints:doc ?program id)
  in
  let w = micro_w ~name:"micro-cow" () in
  let text = Printer.func_to_string (with_stores (w.Workload.build ()).Workload.func) in
  let plain =
    with_spool @@ fun root ->
    ignore (ask w ~program:text root "storing");
    ask w root "plain"
  in
  let fresh = with_spool @@ fun root -> ask (micro_w ~name:"micro-cow" ()) root "plain" in
  Alcotest.(check string) "the plain request succeeds" "" plain.Handler.h_reason;
  Alcotest.(check bool) "answer == a fresh daemon's" true (plain = fresh)

(* ---------------- quarantine compaction ---------------- *)

let fp_of (w : Workload.t) =
  (Fingerprint.fingerprint (w.Workload.build ()).Workload.func)
    .Fingerprint.program

let test_quarantine_compact_idempotent () =
  with_spool @@ fun dir ->
  let path = Filename.concat dir "quarantine" in
  let fp = fp_of (micro_w ()) in
  let q = Quarantine.create ~path () in
  let entry w p =
    { Quarantine.q_workload = w; q_program = p; q_hints = 42; q_speedup = 0.5 }
  in
  Quarantine.add q (entry "micro" fp);
  Quarantine.add q (entry "micro" (fp + 1));
  Quarantine.add q (entry "gone-workload" 7);
  let keep (e : Quarantine.entry) =
    e.Quarantine.q_workload = "micro" && e.Quarantine.q_program = fp
  in
  Alcotest.(check int) "drops the stale entries" 2 (Quarantine.compact q ~keep);
  Alcotest.(check int) "one entry left" 1 (List.length (Quarantine.entries q));
  let q2 = Quarantine.create ~path () in
  Alcotest.(check int) "survivors persisted" 1
    (List.length (Quarantine.entries q2));
  Alcotest.(check int) "idempotent: second compact drops nothing" 0
    (Quarantine.compact q2 ~keep)

let test_quarantine_compact_atomic_under_crash () =
  with_spool @@ fun dir ->
  let path = Filename.concat dir "quarantine" in
  let entry w =
    { Quarantine.q_workload = w; q_program = 1; q_hints = 2; q_speedup = 0.9 }
  in
  let q = Quarantine.create ~path () in
  Quarantine.add q (entry "w1");
  Quarantine.add q (entry "w2");
  let before = read_file path in
  let crash = Crash.after_writes ~mode:crash_mode 1 in
  let qc = Quarantine.create ~path ~crash () in
  (match Quarantine.compact qc ~keep:(fun _ -> false) with
  | _ -> Alcotest.fail "crash plan did not fire"
  | exception Crash.Crashed _ -> ());
  Alcotest.(check string) "crash mid-compact leaves the previous file intact"
    before (read_file path);
  let q2 = Quarantine.create ~path () in
  Alcotest.(check int) "no corrupt lines" 0
    (List.length (Quarantine.load_errors q2));
  Alcotest.(check int) "both entries still there" 2
    (List.length (Quarantine.entries q2))

(* ---------------- salvage observability ---------------- *)

let test_salvage_metrics () =
  with_spool @@ fun dir ->
  with_metrics @@ fun counter ->
  let jp = Filename.concat dir "journal" in
  write_file jp "# aptget journal v1\nthis line is bit-rot\n";
  let t, _, recovery = Inflight.open_ ~path:jp () in
  Inflight.close t;
  Alcotest.(check int) "journal salvaged one record" 1 recovery.Journal.dropped;
  Alcotest.(check int) "store.salvage.journal" 1
    (counter "store.salvage.journal");
  let qp = Filename.concat dir "quarantine" in
  write_file qp "total garbage\n";
  let q = Quarantine.create ~path:qp () in
  Alcotest.(check int) "quarantine salvaged one line" 1
    (List.length (Quarantine.load_errors q));
  Alcotest.(check int) "store.salvage.quarantine" 1
    (counter "store.salvage.quarantine");
  let hp = Filename.concat dir "hints" in
  write_file hp
    "# aptget prefetch hints v1\npc=1 distance=2 site=inner sweep=1\nnot a hint\n";
  (match Hints_file.load_doc_lenient ~path:hp with
  | Ok (doc, errors) ->
    Alcotest.(check int) "kept the good hint" 1
      (List.length (Hints_file.hints_of_doc doc));
    Alcotest.(check int) "reported the bad line" 1 (List.length errors)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "store.salvage.hints_file" 1
    (counter "store.salvage.hints_file")

(* ---------------- frame resync pins ---------------- *)

(* Two whole-but-wrong frames back to back: each must become its own
   skip region, pinned to the byte, with the clean frame behind them
   still decoding. *)
let test_frame_resync_back_to_back () =
  let corrupt f =
    let b = Bytes.of_string f in
    Bytes.set b (Frame.header_len + 3) '!';
    Bytes.to_string b
  in
  let f1 = corrupt (Frame.encode (String.make 40 'x')) in
  let f2 = corrupt (Frame.encode (String.make 25 'y')) in
  let f3 = Frame.encode "zzz" in
  let s = Frame.decode_stream (f1 ^ f2 ^ f3) in
  Alcotest.(check (list string)) "only the clean frame survives" [ "zzz" ]
    s.Frame.frames;
  let skips =
    List.map (fun k -> (k.Frame.skip_pos, k.Frame.skip_len)) s.Frame.skipped
  in
  Alcotest.(check (list (pair int int)))
    "two skip regions, each exactly one corrupt frame"
    [ (0, String.length f1); (String.length f1, String.length f2) ]
    skips;
  Alcotest.(check int) "skipped byte total pinned"
    (String.length f1 + String.length f2)
    (Frame.skipped_bytes s);
  Alcotest.(check int) "everything consumed"
    (String.length f1 + String.length f2 + String.length f3)
    s.Frame.consumed

(* A payload embedding the frame magic (followed by non-hex bytes):
   resync must try the embedded magic, reject it, and resync again —
   splitting the damaged frame into two pinned skip regions. *)
let test_frame_resync_embedded_magic () =
  let f1 =
    let b =
      Bytes.of_string
        (Frame.encode ("aa" ^ Frame.magic ^ String.make 12 'z' ^ "-tail"))
    in
    Bytes.set b 0 'X';
    (* break the outer magic *)
    Bytes.to_string b
  in
  let f2 = Frame.encode "ok" in
  let s = Frame.decode_stream (f1 ^ f2) in
  let inner = Frame.header_len + 2 in
  Alcotest.(check (list string)) "the frame behind decodes" [ "ok" ]
    s.Frame.frames;
  let skips =
    List.map (fun k -> (k.Frame.skip_pos, k.Frame.skip_len)) s.Frame.skipped
  in
  Alcotest.(check (list (pair int int)))
    "skips split exactly at the embedded magic"
    [ (0, inner); (inner, String.length f1 - inner) ]
    skips;
  Alcotest.(check int) "skipped byte total pinned" (String.length f1)
    (Frame.skipped_bytes s);
  Alcotest.(check bool) "no trailing tail" true (s.Frame.trailing = None)

(* ---------------- health heartbeat ---------------- *)

let test_health_heartbeat_roundtrip () =
  with_spool @@ fun spool ->
  (* older file shape: no beat/pid lines read as zero/absent, and a
     legacy ready file still probes live *)
  Health.write ~spool Health.Ready;
  (match Health.read ~spool with
  | Error e -> Alcotest.fail e
  | Ok i ->
    Alcotest.(check int) "beat absent reads 0" 0 i.Health.i_beat;
    Alcotest.(check bool) "pid absent" true (i.Health.i_pid = None));
  Alcotest.(check int) "legacy ready file probes live"
    (Exit_code.to_int Exit_code.Ok_)
    (Exit_code.to_int (Health.probe ~spool));
  Health.write ~spool ~beat:7 ~pid:(Unix.getpid ()) Health.Ready;
  match Health.read ~spool with
  | Error e -> Alcotest.fail e
  | Ok i ->
    Alcotest.(check int) "beat round-trips" 7 i.Health.i_beat;
    Alcotest.(check bool) "pid round-trips" true
      (i.Health.i_pid = Some (Unix.getpid ()))

let test_health_beat_advances () =
  with_spool @@ fun spool ->
  let srv = Server.create (server_config spool) in
  ignore (Server.drain srv);
  let read () =
    match Health.read ~spool with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  let i1 = read () in
  Alcotest.(check bool) "first drain published heartbeats" true
    (i1.Health.i_beat > 0);
  Alcotest.(check bool) "live daemon's pid recorded" true
    (i1.Health.i_pid = Some (Unix.getpid ()));
  ignore (Server.drain srv);
  Alcotest.(check bool) "beat is monotonic across drains" true
    ((read ()).Health.i_beat > i1.Health.i_beat)

(* The one case the heartbeat exists for: a ready-claiming file left
   behind by a daemon that died without publishing [Stopped]. *)
let test_health_dead_pid_probes_crashed () =
  with_spool @@ fun spool ->
  (* a pid with no process behind it (forking a child to reap is off
     the table once domains exist, so hunt for one) *)
  let alive p =
    match Unix.kill p 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
    | exception Unix.Unix_error (_, _, _) -> false
  in
  let rec dead p = if alive p then dead (p - 7) else p in
  let pid = dead 99_983 in
  Health.write ~spool ~beat:5 ~pid Health.Ready;
  Alcotest.(check int) "ready file from a dead pid probes crashed"
    (Exit_code.to_int Exit_code.Crashed)
    (Exit_code.to_int (Health.probe ~spool));
  Health.write ~spool ~beat:6 ~pid:(Unix.getpid ()) Health.Ready;
  Alcotest.(check int) "same file under a live pid probes ok"
    (Exit_code.to_int Exit_code.Ok_)
    (Exit_code.to_int (Health.probe ~spool))

(* ---------------- socket transport ---------------- *)

let test_transport_addr_parse () =
  let ok s =
    match Transport.addr_of_string s with
    | Ok a -> a
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  (match ok "unix:/tmp/x.sock" with
  | Transport.Unix_path p -> Alcotest.(check string) "unix path" "/tmp/x.sock" p
  | Transport.Tcp _ -> Alcotest.fail "expected a unix addr");
  (match ok "tcp:9181" with
  | Transport.Tcp (h, p) ->
    Alcotest.(check string) "default host" "localhost" h;
    Alcotest.(check int) "port" 9181 p
  | Transport.Unix_path _ -> Alcotest.fail "expected a tcp addr");
  (match ok "tcp:127.0.0.1:9182" with
  | Transport.Tcp (h, p) ->
    Alcotest.(check string) "host" "127.0.0.1" h;
    Alcotest.(check int) "port" 9182 p
  | Transport.Unix_path _ -> Alcotest.fail "expected a tcp addr");
  Alcotest.(check string) "round-trips" "tcp:127.0.0.1:9182"
    (Transport.addr_to_string (Transport.Tcp ("127.0.0.1", 9182)));
  List.iter
    (fun bad ->
      match Transport.addr_of_string bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ ""; "sctp:9181"; "tcp:"; "tcp:notaport"; "tcp::9181"; "unix:" ]

let raw_connect addr =
  match Transport.connect addr with
  | Ok fd -> fd
  | Error e -> Alcotest.failf "connect: %s" e

let raw_send fd s =
  let n = String.length s in
  let rec go pos =
    if pos < n then
      go
        (pos
        + Transport.retry_intr (fun () ->
              Unix.write_substring fd s pos (n - pos)))
  in
  go 0

let raw_read_response ?(timeout = 10.0) fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match (Frame.decode_stream (Buffer.contents buf)).Frame.frames with
    | payload :: _ -> (
      match Wire.response_of_string payload with
      | Ok r -> r
      | Error e -> Alcotest.failf "bad response frame: %s" e)
    | [] ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Alcotest.fail "timed out waiting for a response"
      else begin
        match
          Transport.retry_intr (fun () -> Unix.select [ fd ] [] [] left)
        with
        | [], _, _ -> Alcotest.fail "timed out waiting for a response"
        | _ -> (
          match Transport.retry_intr (fun () -> Unix.read fd chunk 0 4096) with
          | 0 -> Alcotest.fail "connection closed before a response"
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ())
      end
  in
  go ()

(* A live daemon on a Unix socket in its own domain; [f addr] runs the
   client side, then a shutdown frame ends the daemon and its report
   comes back with [f]'s result. *)
let with_socket_server ?jobs ?(max_conns = 64) ?(read_deadline = 2.0)
    ?(faults = Net_faults.off) spool f =
  let path = Filename.concat spool "sock" in
  let addr = Transport.Unix_path path in
  let srv = Server.create (server_config ?jobs spool) in
  let sc =
    {
      (Server.default_socket_config addr) with
      Server.sk_max_conns = max_conns;
      sk_read_deadline = read_deadline;
      sk_poll = 0.01;
      sk_heartbeat = 0.05;
      sk_faults = faults;
    }
  in
  let d = Domain.spawn (fun () -> Server.serve_socket srv sc) in
  let rec wait n =
    if n = 0 then Alcotest.fail "socket never appeared"
    else if not (Sys.file_exists path) then begin
      Unix.sleepf 0.01;
      wait (n - 1)
    end
  in
  wait 1000;
  let shutdown () =
    match
      Client.shutdown
        (Client.create (Client.default_config (Client.Socket addr)))
    with
    | Ok () | Error _ -> ()
  in
  let res =
    try f addr
    with e ->
      shutdown ();
      ignore (Domain.join d);
      raise e
  in
  shutdown ();
  match Domain.join d with
  | Ok report -> (res, report)
  | Error e -> Alcotest.failf "serve_socket: %s" e

let socket_ids =
  [
    ("sock-a1", "t-a", "micro");
    ("sock-a2", "t-a", "micro-alt");
    ("sock-b1", "t-b", "micro");
    ("sock-b2", "t-b", "micro-alt");
  ]

let run_socket_workloads jobs =
  with_spool @@ fun spool ->
  let bodies, report =
    with_socket_server ~jobs spool (fun addr ->
        List.map
          (fun (id, tenant, workload) ->
            let c =
              Client.create (Client.default_config (Client.Socket addr))
            in
            match Client.call c (req ~tenant ~workload id) with
            | Error e -> Alcotest.failf "%s: %s" id e
            | Ok o ->
              Alcotest.(check string) (id ^ " status")
                (Wire.status_to_string Wire.Ok_)
                (Wire.status_to_string o.Client.response.Wire.rsp_status);
              (id, o.Client.response.Wire.rsp_body))
          socket_ids)
  in
  Alcotest.(check int) "all answered ok" (List.length socket_ids)
    report.Server.s_ok;
  Alcotest.(check int) "nothing shed" 0 report.Server.s_shed;
  bodies

(* The transport must be invisible in the result bytes: same bodies at
   --jobs 1 and --jobs 4 over the socket, and identical to draining
   the same requests from the file spool. *)
let test_socket_identity_across_transports () =
  let b1 = run_socket_workloads 1 in
  let b4 = run_socket_workloads 4 in
  Alcotest.(check (list (pair string string)))
    "socket bodies byte-identical across --jobs" b1 b4;
  with_spool @@ fun spool ->
  List.iter
    (fun (id, tenant, workload) ->
      Server.submit ~spool (Wire.Run (req ~tenant ~workload id)))
    socket_ids;
  let srv = Server.create (server_config spool) in
  ignore (Server.drain srv);
  let by_id =
    List.map (fun r -> (r.Wire.rsp_id, r.Wire.rsp_body)) (responses_exn spool)
  in
  List.iter
    (fun (id, body) ->
      match List.assoc_opt id by_id with
      | None -> Alcotest.failf "spool oracle missing %s" id
      | Some b ->
        Alcotest.(check string) (id ^ " spool/socket body identical") body b)
    b1

(* A client that vanishes mid-flight and retries the same id must get
   the recorded response — executed once, delivered on the retry. *)
let test_socket_replay_exactly_once () =
  with_spool @@ fun spool ->
  let (), report =
    with_socket_server spool (fun addr ->
        let fd = raw_connect addr in
        raw_send fd
          (Frame.encode (Wire.body_to_string (Wire.Run (req "dup-sock"))));
        Unix.close fd;
        (* gone before the answer *)
        Unix.sleepf 0.5;
        let c = Client.create (Client.default_config (Client.Socket addr)) in
        match Client.call c (req "dup-sock") with
        | Error e -> Alcotest.failf "retry lost: %s" e
        | Ok o ->
          Alcotest.(check string) "retry answered ok"
            (Wire.status_to_string Wire.Ok_)
            (Wire.status_to_string o.Client.response.Wire.rsp_status))
  in
  Alcotest.(check int) "executed exactly once" 1 report.Server.s_ok;
  Alcotest.(check bool) "the retry was a replay" true
    (report.Server.s_replayed >= 1);
  Alcotest.(check int) "exactly one durable record" 1
    (List.length
       (List.filter (fun r -> r.Wire.rsp_id = "dup-sock") (responses_exn spool)))

let test_socket_conn_cap_sheds () =
  with_spool @@ fun spool ->
  let (), report =
    with_socket_server ~max_conns:1 ~read_deadline:30.0 spool (fun addr ->
        let a = raw_connect addr in
        Unix.sleepf 0.2;
        (* let the daemon accept [a] and fill the cap *)
        let b = raw_connect addr in
        let r = raw_read_response b in
        Alcotest.(check string) "over-cap conn is shed"
          (Wire.status_to_string Wire.Overloaded)
          (Wire.status_to_string r.Wire.rsp_status);
        Alcotest.(check string) "shed frame has no id" "-" r.Wire.rsp_id;
        Unix.close b;
        Unix.close a;
        Unix.sleepf 0.2
        (* the daemon notices [a]'s EOF and frees the cap for the
           shutdown frame *))
  in
  Alcotest.(check bool) "shed counted" true (report.Server.s_shed >= 1)

let test_socket_slow_loris_shed () =
  with_spool @@ fun spool ->
  let (), report =
    with_socket_server ~read_deadline:0.15 spool (fun addr ->
        let fd = raw_connect addr in
        raw_send fd "APTG12";
        (* a header that never completes *)
        let r = raw_read_response fd in
        Alcotest.(check string) "blown read deadline is shed as overloaded"
          (Wire.status_to_string Wire.Overloaded)
          (Wire.status_to_string r.Wire.rsp_status);
        Unix.close fd)
  in
  Alcotest.(check bool) "shed counted" true (report.Server.s_shed >= 1)

(* Clients under seeded disconnects, short writes, delays and
   duplicates: every id is answered [Ok_] and executed exactly once —
   never lost, never run twice. *)
let test_socket_faulty_clients_exactly_once () =
  with_spool @@ fun spool ->
  let faults =
    {
      Net_faults.seed = 1;
      disconnect_rate = 0.3;
      short_write_rate = 0.5;
      delay_rate = 0.2;
      max_delay = 0.02;
      duplicate_rate = 0.3;
    }
  in
  let ids = List.init 10 (Printf.sprintf "flaky-%d") in
  let (), report =
    with_socket_server spool (fun addr ->
        let cfg =
          {
            (Client.default_config (Client.Socket addr)) with
            Client.faults;
            seed = 1;
          }
        in
        List.iteri
          (fun k id ->
            let c = Client.create ~stream:k cfg in
            match Client.call c (req id) with
            | Error e -> Alcotest.failf "%s lost: %s" id e
            | Ok o ->
              Alcotest.(check string) (id ^ " answered ok")
                (Wire.status_to_string Wire.Ok_)
                (Wire.status_to_string o.Client.response.Wire.rsp_status))
          ids)
  in
  Alcotest.(check int) "each id executed exactly once" (List.length ids)
    report.Server.s_ok;
  let rs = responses_exn spool in
  List.iter
    (fun id ->
      Alcotest.(check int)
        (id ^ " has exactly one durable record")
        1
        (List.length (List.filter (fun r -> r.Wire.rsp_id = id) rs)))
    ids

(* Socket twin of the spool test: the malformed answer under [frame-1]
   is not replayed to a client that later sends a real [frame-1]. *)
let test_socket_malformed_id_not_answered () =
  with_spool @@ fun spool ->
  let (), report =
    with_socket_server spool (fun addr ->
        let fd = raw_connect addr in
        raw_send fd (Frame.encode "this is not a wire payload");
        let r = raw_read_response fd in
        Unix.close fd;
        Alcotest.(check string) "garbage answered under a synthetic id"
          "frame-1" r.Wire.rsp_id;
        Alcotest.(check string) "as malformed"
          (Wire.status_to_string Wire.Malformed)
          (Wire.status_to_string r.Wire.rsp_status);
        let c = Client.create (Client.default_config (Client.Socket addr)) in
        match Client.call c (req "frame-1") with
        | Error e -> Alcotest.failf "frame-1: %s" e
        | Ok o ->
          Alcotest.(check string) "the real request runs"
            (Wire.status_to_string Wire.Ok_)
            (Wire.status_to_string o.Client.response.Wire.rsp_status))
  in
  Alcotest.(check int) "executed, not replayed" 1 report.Server.s_ok;
  Alcotest.(check int) "no replay" 0 report.Server.s_replayed

(* Garbage ending in a partial "APT" magic prefix: the daemon consumes
   the garbage, holds the prefix back, and reassembles the frame when
   the rest arrives. *)
let test_socket_magic_holdback () =
  with_spool @@ fun spool ->
  let (), report =
    with_socket_server spool (fun addr ->
        let frame =
          Frame.encode (Wire.body_to_string (Wire.Run (req "holdback-1")))
        in
        let fd = raw_connect addr in
        raw_send fd "XXXXAPT";
        Unix.sleepf 0.3;
        raw_send fd ("G" ^ String.sub frame 4 (String.length frame - 4));
        let r = raw_read_response fd in
        Alcotest.(check string) "reassembled across the split magic"
          "holdback-1" r.Wire.rsp_id;
        Alcotest.(check string) "answered ok"
          (Wire.status_to_string Wire.Ok_)
          (Wire.status_to_string r.Wire.rsp_status);
        Unix.close fd)
  in
  Alcotest.(check int) "the garbage was resynced past" 1
    report.Server.s_resynced

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
          Alcotest.test_case "truncation at every byte is total" `Quick
            test_frame_truncation_total;
          Alcotest.test_case "single-byte corruption is detected" `Quick
            test_frame_corruption_detected;
          Alcotest.test_case "resync recovers frames behind corruption" `Quick
            test_frame_resync_recovers_suffix;
          Alcotest.test_case "oversized payloads are malformed" `Quick
            test_frame_oversized;
          Alcotest.test_case "empty stream" `Quick test_frame_empty_stream;
          Alcotest.test_case "back-to-back corruption skips are pinned" `Quick
            test_frame_resync_back_to_back;
          Alcotest.test_case "embedded magic splits the skip exactly" `Quick
            test_frame_resync_embedded_magic;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request round-trips" `Quick
            test_wire_request_roundtrip;
          Alcotest.test_case "strict parser rejects deviations" `Quick
            test_wire_rejects;
          Alcotest.test_case "response round-trips" `Quick
            test_wire_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_reason_roundtrip;
        ] );
      ( "exit-codes",
        [ Alcotest.test_case "pinned contract" `Quick test_exit_code_pins ] );
      ( "admission",
        [
          Alcotest.test_case "deterministic shedding" `Quick
            test_admission_sheds_deterministically;
        ] );
      ( "breaker",
        [ Alcotest.test_case "open/refuse/probe cycle" `Quick test_breaker_policy ]
      );
      ( "tenant",
        [ Alcotest.test_case "registry and namespaces" `Quick test_tenant_registry ]
      );
      ( "inflight",
        [
          Alcotest.test_case "replay finds orphans" `Quick test_inflight_replay;
          Alcotest.test_case "torn admit is salvaged" `Quick
            test_inflight_torn_admit_salvaged;
        ] );
      ( "server",
        [
          Alcotest.test_case "byte-identity across --jobs + one-shot" `Slow
            test_serve_identity_across_jobs;
          Alcotest.test_case "saturation sheds exactly" `Slow
            test_serve_saturation_sheds_exactly;
          Alcotest.test_case "tenant isolation (breaker)" `Slow
            test_serve_tenant_isolation;
          Alcotest.test_case "per-request deadline" `Slow
            test_serve_deadline_times_out;
          Alcotest.test_case "malformed/duplicate/draining" `Slow
            test_serve_malformed_duplicate_draining;
          Alcotest.test_case "in-progress append survives the drain" `Slow
            test_serve_preserves_inflight_append;
          Alcotest.test_case "resyncs past mid-queue corruption" `Slow
            test_serve_resyncs_past_corruption;
          Alcotest.test_case "id reuse across drains is rejected" `Slow
            test_serve_duplicate_id_across_drains;
          Alcotest.test_case "kill mid-flight, recover" `Slow
            test_serve_crash_recovery;
          Alcotest.test_case "a malformed answer's id is not answered" `Slow
            test_serve_malformed_id_not_answered;
          Alcotest.test_case "the answered-id index is loaded once" `Slow
            test_serve_index_loaded_once;
          Alcotest.test_case "a torn response tail is cut and re-run" `Slow
            test_serve_torn_response_tail;
          Alcotest.test_case "batch spans, responses unchanged by tracing"
            `Slow test_serve_batch_spans;
        ] );
      ( "warm",
        [
          Alcotest.test_case "a warm request builds nothing" `Slow
            test_warm_request_builds_nothing;
          Alcotest.test_case "the fingerprint memo does not alias programs"
            `Slow test_memo_does_not_alias_programs;
          Alcotest.test_case "a shipped store does not leak into the image"
            `Slow test_shipped_store_does_not_leak;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "compaction is idempotent" `Quick
            test_quarantine_compact_idempotent;
          Alcotest.test_case "compaction is atomic under crash" `Quick
            test_quarantine_compact_atomic_under_crash;
        ] );
      ( "salvage",
        [ Alcotest.test_case "salvage counts land on metrics" `Quick
            test_salvage_metrics ] );
      ( "health",
        [
          Alcotest.test_case "heartbeat fields round-trip, legacy reads" `Quick
            test_health_heartbeat_roundtrip;
          Alcotest.test_case "beat advances across drains" `Slow
            test_health_beat_advances;
          Alcotest.test_case "dead pid behind a ready file probes crashed"
            `Quick test_health_dead_pid_probes_crashed;
        ] );
      ( "transport",
        [
          Alcotest.test_case "address parsing" `Quick test_transport_addr_parse;
        ] );
      ( "socket",
        [
          Alcotest.test_case "byte-identity across --jobs + spool oracle" `Slow
            test_socket_identity_across_transports;
          Alcotest.test_case "mid-flight disconnect retries replay exactly once"
            `Slow test_socket_replay_exactly_once;
          Alcotest.test_case "connection cap sheds as overloaded" `Slow
            test_socket_conn_cap_sheds;
          Alcotest.test_case "slow-loris blows the read deadline" `Slow
            test_socket_slow_loris_shed;
          Alcotest.test_case "seeded client faults: exactly once, none lost"
            `Slow test_socket_faulty_clients_exactly_once;
          Alcotest.test_case "split magic across reads reassembles" `Slow
            test_socket_magic_holdback;
          Alcotest.test_case "a malformed answer's id is not replayed" `Slow
            test_socket_malformed_id_not_answered;
        ] );
    ]
