(** The serve daemon: a supervised batch server over two transports.

    The original — and still canonical for tests — transport is a
    spool directory: every byte of daemon I/O is a plain file, so CI
    can drive it deterministically, inspect it with a pager, and crash
    it mid-flight with the store's simulated kill plans.

    {v
    <spool>/requests.q     framed Wire.body payloads (clients append)
    <spool>/responses.q    framed Wire.response payloads (daemon appends)
    <spool>/serve.journal  in-flight admit/done records (CRC'd)
    <spool>/health         liveness/readiness state file (with heartbeat)
    <spool>/.lock          fcntl lock serializing appends vs truncation
    <spool>/tenants/<id>/  per-tenant quarantine + measurement cache
    v}

    The second transport ({!serve_socket}) is a live Unix-domain or
    TCP listener ({!Transport}) speaking the same ["APTG"] frames over
    a stream. It shares everything below the wire with the spool path
    — the same spool directory still holds the journal, the durable
    response record and the health file — so crash recovery and the
    duplicate ledger are transport-independent.

    A {e batch} is the unit of service: decode every whole frame,
    answer recovery orphans with [aborted], offer the batch to
    admission control in arrival order (the first [capacity] are
    admitted, the rest shed with [overloaded]), journal the
    admissions, run them grouped per tenant — groups in parallel on
    the domain {!Aptget_util.Pool}, requests within a group serially —
    and append every response, in arrival order, to [responses.q] with
    one [O_APPEND] write. Response bytes are therefore a function of the
    request sequence alone, identical at any [--jobs] and identical
    across the two transports.

    Spool-queue truncation is loss-proof: the drain removes exactly
    the prefix of [requests.q] it consumed, under the spool lock that
    {!submit} also takes, so frames appended after the drain's
    snapshot — and a trailing torn append that may still be in
    progress — survive to the next drain. A corrupted region inside
    the queue (or inside a socket stream) is skipped by resyncing to
    the next frame magic (counted, degraded exit), so one flipped byte
    cannot swallow the requests behind it.

    Duplicate ids: on the spool path an id that already has a response
    in [responses.q] is rejected as a duplicate rather than
    re-executed. The instance keeps the answered ids in memory: the
    file is parsed on first use and again only when a stat (size,
    mtime, inode) no longer matches what this instance last wrote, so
    a warm batch costs the same however many answers are recorded. A
    [malformed] answer (synthetic id [frame-N]) answers no id. On the socket path the same id is {e replayed} — the
    recorded response is re-sent, not re-recorded and not re-executed
    — because there a duplicate is almost always a client retry after
    a torn connection, and the id doubles as an idempotency key:
    exactly-once execution, at-least-once delivery. Only an id the
    journal marks finished {e without} an answer (the crash hit
    between the [done] record and the response write) is resumed.

    Crash safety: an armed {!Aptget_store.Crash} plan (which also
    forces [jobs:1], like the campaign runner) raises mid-batch before
    the response write; the next incarnation replays the journal,
    aborts the orphans and re-executes the rest against the tenants'
    persistent stores. A kill inside the response append leaves a torn
    last frame; the next index load cuts it off
    ([store.salvage.responses]) and, the journal saying done with no
    answer, re-executes that request. After a completed batch every
    journal record is settled, so the journal is compacted to empty —
    after the batch is acknowledged (spool) or delivered (socket). *)

type config = {
  spool : string;
  capacity : int;  (** admission bound per drain (default 64) *)
  jobs : int option;  (** pool width; [None] = {!Aptget_util.Pool.default_jobs} *)
  default_deadline : int option;
      (** deadline-cycles applied to requests that carry none *)
  handler : Handler.config;
  breaker : Aptget_core.Breaker.config;  (** per-tenant breaker policy *)
  cache : bool;  (** give tenants measurement-cache scopes (default true) *)
}

val default_config : spool:string -> config

type report = {
  s_frames : int;  (** whole frames decoded this drain *)
  s_torn : int;
      (** 1 when a trailing incomplete tail was (newly) observed. The
          tail itself is left in [requests.q] — it may be an append in
          progress — and is not re-counted by this instance until it
          changes. *)
  s_resynced : int;
      (** corrupted regions inside the queue (or a socket stream)
          skipped by resyncing to the next frame magic (their bytes
          are consumed — they are permanently damaged, unlike a
          trailing tear) *)
  s_ok : int;
  s_shed : int;
      (** admission-queue sheds, plus (socket transport) connections
          refused at the cap or reaped at the read deadline *)
  s_timed_out : int;
  s_rejected : int;
  s_failed : int;
  s_malformed : int;
  s_aborted : int;  (** recovery orphans answered [aborted] *)
  s_resumed : int;
      (** requests re-executed because a previous incarnation had
          finished them but crashed before responding (finished in the
          journal, no answer in [responses.q]) *)
  s_replayed : int;
      (** socket transport only: already-answered ids whose recorded
          response was re-delivered to a retrying client (idempotent
          retry), plus in-batch duplicate frames answered with their
          sibling's response. Never re-executed, never re-recorded. *)
  s_drained : bool;  (** a shutdown marker was processed *)
  s_salvaged : int;  (** corrupt journal records dropped at recovery *)
}

val combine : report -> report -> report

val exit_code : report -> Exit_code.t
(** [Overloaded] if anything was shed; else [Degraded] if any request
    failed, timed out, was rejected, malformed, torn, resynced-past or
    aborted; else [Ok_]. (Replays are clean: a successfully retried
    request is a success.) A crash never reaches this: it propagates
    as {!Aptget_store.Crash.Crashed}. *)

type t
(** A daemon instance: config plus the tenant registry (breaker state
    lives across drains of the same instance, like any resident
    daemon's; it is rebuilt deterministically after a restart). *)

val create : config -> t

val drain : ?crash:Aptget_store.Crash.t -> t -> report
(** One spool batch (see above). Publishes [ready] to the health file
    on entry and again after the batch. Raises
    {!Aptget_store.Crash.Crashed} only via an armed [crash] plan. *)

val serve :
  ?crash:Aptget_store.Crash.t -> ?poll:float -> ?max_drains:int -> t -> report
(** Drain repeatedly (sleeping [poll] seconds, default 0.05, between
    empty polls) until a drain processes a shutdown marker — the
    graceful-drain path — or [max_drains] batches have run. Publishes
    [stopped] with the combined report's exit code before returning. *)

type socket_config = {
  sk_addr : Transport.addr;
  sk_max_conns : int;  (** connection cap; over-cap accepts are shed *)
  sk_read_deadline : float;
      (** seconds a connection may sit without completing a frame
          before it is shed (slow-loris guard) *)
  sk_poll : float;  (** select timeout between batches (seconds) *)
  sk_heartbeat : float;
      (** max seconds between idle health-file publishes *)
  sk_faults : Net_faults.config;  (** server-side injected faults *)
}

val default_socket_config : Transport.addr -> socket_config
(** cap 64, deadline 2 s, poll 20 ms, heartbeat 0.5 s, faults off. *)

val serve_socket :
  ?crash:Aptget_store.Crash.t ->
  ?max_batches:int ->
  t ->
  socket_config ->
  (report, string) result
(** Listen on [sk_addr] and serve batches until a shutdown request is
    processed (or [max_batches] non-empty batches have run, a test
    knob). Each poll round's completed frames form one batch through
    the same core as {!drain} — responses are recorded durably in
    [responses.q] {e before} they are written back to connections, so
    a connection lost mid-response never loses the answer: the client
    retries under the same id and the recorded response is replayed.
    Recovery (journal orphans) runs once at startup. The health file
    heartbeat is bumped at least every [sk_heartbeat] seconds while
    idle. [Error] when the listener cannot be established. *)

val stop : t -> code:Exit_code.t -> unit
(** Publish [stopped] with [code] (used by the CLI when a crash plan
    fired: the supervisor's record of the death). *)

val submit : spool:string -> Wire.body -> unit
(** Client side: append one framed payload to [requests.q] under the
    spool lock (so a concurrent drain's truncation cannot observe, or
    destroy, a half-written frame), creating the spool on first
    use. *)

val responses :
  spool:string -> ((Wire.response, string) result list, string) result
(** Client side: decode [responses.q] — one entry per frame, [Error]
    for a payload that does not parse as a response. *)
