module Clock = Aptget_util.Clock

(* ---------------- EINTR hardening ---------------- *)

let rec retry_intr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_intr f

let sleep seconds =
  if seconds > 0. then begin
    let until = Unix.gettimeofday () +. seconds in
    let rec go () =
      let left = until -. Unix.gettimeofday () in
      if left > 0. then begin
        (try Unix.sleepf left with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
    in
    go ()
  end

(* ---------------- addresses ---------------- *)

type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  let prefix p =
    let n = String.length p in
    if String.length s > n && String.sub s 0 n = p then
      Some (String.sub s n (String.length s - n))
    else None
  in
  match prefix "unix:" with
  | Some path -> Ok (Unix_path path)
  | None -> (
    match prefix "tcp:" with
    | Some rest -> (
      let port_of p =
        match int_of_string_opt p with
        | Some n when n >= 0 && n <= 65_535 -> Ok n
        | Some _ | None -> Error (Printf.sprintf "bad port %S" p)
      in
      match String.rindex_opt rest ':' with
      | None -> Result.map (fun p -> Tcp ("localhost", p)) (port_of rest)
      | Some i ->
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        if host = "" then Error "empty tcp host"
        else Result.map (fun p -> Tcp (host, p)) (port_of port))
    | None ->
      Error
        (Printf.sprintf
           "bad address %S: expected unix:PATH or tcp:[HOST:]PORT" s))

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let resolve_host h =
  if h = "localhost" then Ok Unix.inet_addr_loopback
  else
    match Unix.inet_addr_of_string h with
    | a -> Ok a
    | exception Failure _ -> Error (Printf.sprintf "bad host %S" h)

let sockaddr_of_addr = function
  | Unix_path p -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX p)
  | Tcp (h, port) ->
    Result.map (fun ip -> (Unix.PF_INET, Unix.ADDR_INET (ip, port))) (resolve_host h)

let connect addr =
  match sockaddr_of_addr addr with
  | Error e -> Error e
  | Ok (domain, sockaddr) -> (
    (* A peer that hangs up before we write must surface as EPIPE on
       the write, never as a process-killing SIGPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match retry_intr (fun () -> Unix.connect fd sockaddr) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" (addr_to_string addr)
           (Unix.error_message e)))

(* ---------------- spool primitives ---------------- *)

let requests_path ~spool = Filename.concat spool "requests.q"

let responses_path ~spool = Filename.concat spool "responses.q"

let journal_path ~spool = Filename.concat spool "serve.journal"

let lock_path spool = Filename.concat spool ".lock"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The spool lock (fcntl, so it also works across processes)
   serializes client appends to [requests.q] against the drain's
   read-then-truncate of it. Without it a frame appended between the
   drain's snapshot and its truncate — or the half-written state of an
   append caught mid-write — would be destroyed with no response.
   The queue file is only ever opened {e after} the lock is held: an
   fd obtained before the truncate's rename would append to the
   replaced, unlinked inode. *)
let with_spool_lock spool f =
  mkdir_p spool;
  let fd =
    retry_intr (fun () ->
        Unix.openfile (lock_path spool) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      retry_intr (fun () -> Unix.lockf fd Unix.F_LOCK 0);
      Fun.protect
        ~finally:(fun () -> retry_intr (fun () -> Unix.lockf fd Unix.F_ULOCK 0))
        f)

let spool_append ~spool frame =
  with_spool_lock spool @@ fun () ->
  let oc =
    open_out_gen
      [ Open_append; Open_creat; Open_binary ]
      0o644 (requests_path ~spool)
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc frame)

(* ---------------- socket listener ---------------- *)

type socket_config = {
  sc_addr : addr;
  sc_max_conns : int;
  sc_read_deadline : float;
  sc_shed_frame : string;
  sc_faults : Net_faults.config;
}

let default_socket_config addr =
  {
    sc_addr = addr;
    sc_max_conns = 64;
    sc_read_deadline = 2.0;
    sc_shed_frame = "";
    sc_faults = Net_faults.off;
  }

type conn_id = int

type conn = {
  c_id : conn_id;
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;  (* undecoded stream tail *)
  mutable c_last : float;  (* stamp of the last byte of progress *)
  mutable c_pending : int;  (* whole frames delivered upward, unanswered *)
  c_faults : Net_faults.t;  (* server-side send fault stream *)
}

type listener = {
  config : socket_config;
  fd : Unix.file_descr;
  mutable conns : conn list;  (* accept order *)
  mutable next_id : int;
  mutable closed : bool;
  chunk : bytes;
}

let resolve_host h =
  if h = "localhost" then Ok Unix.inet_addr_loopback
  else
    match Unix.inet_addr_of_string h with
    | a -> Ok a
    | exception Failure _ -> Error (Printf.sprintf "bad host %S" h)

let listen config =
  if config.sc_max_conns < 1 then Error "max connections must be >= 1"
  else if not (config.sc_read_deadline > 0.) then
    Error "read deadline must be > 0"
  else
    match Net_faults.validate config.sc_faults with
    | Error e -> Error ("net faults: " ^ e)
    | Ok () -> (
      (* A peer that closes mid-response must surface as EPIPE on the
         write, never as a process-killing SIGPIPE. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let bind_addr =
        match config.sc_addr with
        | Unix_path p ->
          if String.length p >= 100 then
            Error (Printf.sprintf "unix socket path too long: %s" p)
          else begin
            (try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ());
            Ok (Unix.PF_UNIX, Unix.ADDR_UNIX p)
          end
        | Tcp (h, port) ->
          Result.map
            (fun ip -> (Unix.PF_INET, Unix.ADDR_INET (ip, port)))
            (resolve_host h)
      in
      match bind_addr with
      | Error e -> Error e
      | Ok (domain, sockaddr) -> (
        let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
        match
          if domain = Unix.PF_INET then
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd sockaddr;
          Unix.listen fd 64;
          Unix.set_nonblock fd
        with
        | () ->
          Ok
            {
              config;
              fd;
              conns = [];
              next_id = 0;
              closed = false;
              chunk = Bytes.create 65_536;
            }
        | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot listen on %s: %s"
               (addr_to_string config.sc_addr)
               (Unix.error_message e))))

let best_effort_write fd bytes =
  if bytes <> "" then
    try
      let rec go pos len =
        if len > 0 then begin
          let n = retry_intr (fun () -> Unix.write_substring fd bytes pos len) in
          go (pos + n) (len - n)
        end
      in
      go 0 (String.length bytes)
    with Unix.Unix_error _ | Net_faults.Disconnected _ -> ()

let close_conn l c =
  (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
  l.conns <- List.filter (fun x -> x.c_id <> c.c_id) l.conns

(* Length of the longest proper suffix of [s] that is a prefix of the
   frame magic. A resync skip that runs to the end of the buffer must
   not consume such a suffix: it may be the first bytes of the next
   frame's magic split across two reads. *)
let magic_holdback s =
  let len = String.length s in
  let is_prefix n =
    n <= len && String.sub s (len - n) n = String.sub Frame.magic 0 n
  in
  if is_prefix 3 then 3 else if is_prefix 2 then 2 else if is_prefix 1 then 1 else 0

(* Extract every whole frame buffered on [c], dropping consumed bytes
   (decoded frames and settled corrupt regions) and keeping the
   incomplete tail. Returns payloads in stream order plus resync
   accounting. *)
let extract_frames c =
  let s = Buffer.contents c.c_buf in
  if s = "" then ([], 0, 0)
  else begin
    let st = Frame.decode_stream s in
    let holdback =
      (* only when the final skip region ran to end-of-buffer: its far
         edge is provisional until more bytes arrive *)
      match (st.Frame.trailing, List.rev st.Frame.skipped) with
      | None, k :: _ when k.Frame.skip_pos + k.Frame.skip_len = String.length s
        ->
        magic_holdback s
      | _ -> 0
    in
    let consumed = st.Frame.consumed - holdback in
    Buffer.clear c.c_buf;
    Buffer.add_substring c.c_buf s consumed (String.length s - consumed);
    let n = List.length st.Frame.frames in
    c.c_pending <- c.c_pending + n;
    ( st.Frame.frames,
      List.length st.Frame.skipped,
      max 0 (Frame.skipped_bytes st - holdback) )
  end

type poll = {
  p_payloads : (conn_id * string) list;
  p_conn_shed : int;
  p_expired : int;
  p_resynced : int;
  p_skipped_bytes : int;
  p_closed : int;
}

let empty_poll =
  {
    p_payloads = [];
    p_conn_shed = 0;
    p_expired = 0;
    p_resynced = 0;
    p_skipped_bytes = 0;
    p_closed = 0;
  }

let accept_burst l =
  let rec go shed =
    match Unix.accept ~cloexec:true l.fd with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
      ->
      shed
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go shed
    | fd, _ ->
      if List.length l.conns >= l.config.sc_max_conns then begin
        (* refuse at the cap: tell the client it was shed, then hang up *)
        best_effort_write fd l.config.sc_shed_frame;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        go (shed + 1)
      end
      else begin
        let c =
          {
            c_id = l.next_id;
            c_fd = fd;
            c_buf = Buffer.create 512;
            c_last = Clock.now ();
            c_pending = 0;
            c_faults = Net_faults.create l.config.sc_faults ~stream:l.next_id;
          }
        in
        l.next_id <- l.next_id + 1;
        l.conns <- l.conns @ [ c ];
        go shed
      end
  in
  go 0

let poll l ~timeout =
  if l.closed then empty_poll
  else begin
    let now = Clock.now () in
    (* wake for the nearest read-deadline even if no bytes arrive *)
    let deadline = l.config.sc_read_deadline in
    let wake =
      List.fold_left
        (fun acc c ->
          if c.c_pending > 0 then acc
          else Float.min acc (c.c_last +. deadline -. now))
        timeout l.conns
    in
    let fds = l.fd :: List.map (fun c -> c.c_fd) l.conns in
    let readable, _, _ =
      retry_intr (fun () -> Unix.select fds [] [] (Float.max 0. wake))
    in
    let conn_shed =
      if List.mem l.fd readable then accept_burst l else 0
    in
    let payloads = ref [] in
    let resynced = ref 0 in
    let skipped = ref 0 in
    let closed = ref 0 in
    (* read in accept order so arrival order within a poll round is a
       function of connection order, not of fd numbering *)
    List.iter
      (fun c ->
        if List.memq c.c_fd readable then begin
          match retry_intr (fun () -> Unix.read c.c_fd l.chunk 0 (Bytes.length l.chunk)) with
          | exception Unix.Unix_error _ ->
            incr closed;
            close_conn l c
          | 0 ->
            (* EOF: a connection abandoned with a partial frame buffered
               is a tear that can never complete — just drop it *)
            incr closed;
            close_conn l c
          | n ->
            Buffer.add_subbytes c.c_buf l.chunk 0 n;
            c.c_last <- Clock.now ();
            let frames, r, sk = extract_frames c in
            resynced := !resynced + r;
            skipped := !skipped + sk;
            payloads :=
              List.rev_append (List.map (fun p -> (c.c_id, p)) frames) !payloads
        end)
      l.conns;
    (* slow-loris guard: a connection with no outstanding request that
       has not completed a frame within the deadline is shed. A
       connection with [c_pending > 0] is waiting on us, not us on it. *)
    let now = Clock.now () in
    let expired =
      List.filter
        (fun c -> c.c_pending = 0 && now -. c.c_last > deadline)
        l.conns
    in
    List.iter
      (fun c ->
        best_effort_write c.c_fd l.config.sc_shed_frame;
        close_conn l c)
      expired;
    {
      p_payloads = List.rev !payloads;
      p_conn_shed = conn_shed;
      p_expired = List.length expired;
      p_resynced = !resynced;
      p_skipped_bytes = !skipped;
      p_closed = !closed;
    }
  end

let find_conn l cid = List.find_opt (fun c -> c.c_id = cid) l.conns

let respond l cid frame =
  match find_conn l cid with
  | None -> ()
  | Some c -> (
    try Net_faults.send_frame c.c_faults c.c_fd frame
    with Net_faults.Disconnected _ | Unix.Unix_error _ ->
      (* the durable copy in responses.q is the real answer; a
         reconnecting client gets it replayed *)
      close_conn l c)

let finish l cid =
  match find_conn l cid with
  | None -> ()
  | Some c ->
    c.c_pending <- c.c_pending - 1;
    if c.c_pending <= 0 then close_conn l c

let close_listener l =
  if not l.closed then begin
    l.closed <- true;
    List.iter (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) l.conns;
    l.conns <- [];
    (try Unix.close l.fd with Unix.Unix_error _ -> ());
    match l.config.sc_addr with
    | Unix_path p -> (
      try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ()
  end
