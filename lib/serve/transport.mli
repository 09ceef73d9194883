(** Transports for the serve daemon: the file spool and a live socket.

    The wire protocol ({!Frame} + {!Wire}) and the batch-processing
    core ({!Server.process}) are transport-agnostic; this module owns
    the two ways bytes actually arrive:

    - the {e spool}: clients append frames to [<spool>/requests.q]
      under an fcntl lock and read [<spool>/responses.q]. Byte-for-byte
      the PR 6 transport — the primitives here are the same code,
      relocated below {!Server} so both transports can share them.
    - a {e socket listener}: a Unix-domain or TCP stream speaking the
      same frames. Connections are capped (over-cap connects are
      answered with a pre-framed shed payload and closed), each
      connection's partial frame is subject to a read deadline (the
      slow-loris guard), and a corrupt region inside a connection's
      stream is skipped with exactly {!Frame.decode_stream}'s
      resync — a torn or bit-flipped frame degrades the stream, it
      never kills the daemon.

    Every syscall loop here retries [EINTR]: a signal landing during a
    drain must never surface as a spurious crash exit. *)

val retry_intr : (unit -> 'a) -> 'a
(** Re-run [f] until it completes without [Unix.EINTR]. *)

val sleep : float -> unit
(** [sleepf] that re-sleeps the remainder after [EINTR]. *)

(** {1 Addresses} *)

type addr =
  | Unix_path of string  (** Unix-domain socket at this path *)
  | Tcp of string * int  (** numeric IPv4 host (or [localhost]) and port *)

val addr_of_string : string -> (addr, string) result
(** [unix:PATH] or [tcp:HOST:PORT] ([tcp:PORT] = [localhost]). *)

val addr_to_string : addr -> string

val connect : addr -> (Unix.file_descr, string) result
(** Client side: a connected stream socket to [addr] ([Error] for a
    bad host or a connection failure — retryable, never raised). *)

(** {1 Spool primitives} *)

val requests_path : spool:string -> string
val responses_path : spool:string -> string
val journal_path : spool:string -> string

val mkdir_p : string -> unit

val with_spool_lock : string -> (unit -> 'a) -> 'a
(** Hold the spool's fcntl lock ([<spool>/.lock], creating the spool
    first if needed) around [f]: serializes client appends to
    [requests.q] against the drain's read-then-truncate. *)

val spool_append : spool:string -> string -> unit
(** Append pre-framed bytes to [requests.q] under the spool lock. *)

(** {1 Socket listener} *)

type socket_config = {
  sc_addr : addr;
  sc_max_conns : int;  (** connection cap (>= 1) *)
  sc_read_deadline : float;
      (** seconds a connection may sit without completing a frame
          before it is shed (> 0) *)
  sc_shed_frame : string;
      (** pre-framed payload written (best-effort) to a connection
          refused at the cap or reaped at the deadline — the server
          supplies an [overloaded] response with id ["-"] *)
  sc_faults : Net_faults.config;
      (** server-side send faults (off in production) *)
}

val default_socket_config : addr -> socket_config
(** cap 64, read deadline 2 s, empty shed frame, faults off. *)

type listener

type conn_id = int

val listen : socket_config -> (listener, string) result
(** Bind and listen (unlinking a stale Unix-domain path first), set
    [SIGPIPE] to ignore. [Error] for a bad config or bind failure. *)

type poll = {
  p_payloads : (conn_id * string) list;
      (** whole decoded frame payloads, in arrival order *)
  p_conn_shed : int;  (** connections refused at the cap *)
  p_expired : int;  (** connections reaped at the read deadline *)
  p_resynced : int;
      (** corrupt in-stream regions skipped via frame-magic resync *)
  p_skipped_bytes : int;
  p_closed : int;  (** connections that disconnected on their own *)
}

val poll : listener -> timeout:float -> poll
(** One event-loop step: accept (shedding over the cap), read every
    ready connection, extract whole frames (keeping each connection's
    incomplete tail, including a partial frame magic split across
    reads), reap deadline-blown connections. Never raises on
    connection-level errors — a broken peer is counted in [p_closed],
    not thrown. *)

val respond : listener -> conn_id -> string -> unit
(** Best-effort framed write to a connection (the stream's seeded
    send faults apply); a write failure just closes the connection —
    the response is already durable in [responses.q], and a
    reconnecting client gets it replayed. *)

val finish : listener -> conn_id -> unit
(** One of the connection's outstanding payloads has been answered;
    when none remain the connection is closed (the transport is
    one-shot per request batch, like HTTP/1.0). *)

val close_listener : listener -> unit
(** Close every connection and the listening socket; unlink a
    Unix-domain path. Idempotent. *)
