(** Length-prefixed, checksummed frames for the serve wire protocol.

    A frame is a 20-byte ASCII header followed by the raw payload:

    {v
    APTG <8 hex chars: CRC-32 of payload> <8 hex chars: payload length>
    v}

    (no separators — ["APTG" ^ crc ^ len ^ payload]). The explicit
    length makes the stream self-delimiting without any payload
    escaping, and the CRC makes a torn or bit-rotted frame detectable
    instead of silently parseable as garbage. Decoding never raises:
    a frame cut short by a torn append comes back as {!Incomplete}
    (the clean "stop here, the tail is unusable" signal) and a frame
    whose header or checksum is wrong comes back as {!Malformed}. *)

val magic : string
(** ["APTG"] — the 4-byte frame marker (exposed for transports that
    must recognise a partial magic split across stream reads). *)

val header_len : int
(** Fixed header size in bytes (20). *)

val max_payload : int
(** Upper bound on a payload's length (16 MiB). A length field above
    it is treated as {!Malformed} rather than as an instruction to
    wait for gigabytes that will never come. *)

val encode : string -> string
(** Frame one payload.
    @raise Invalid_argument when the payload exceeds {!max_payload}. *)

type error =
  | Incomplete of { have : int; need : int }
      (** The buffer ends mid-frame: only [have] of the [need] bytes
          this frame requires are present. At the end of a stream this
          is the torn-append artifact. *)
  | Malformed of string  (** bad magic, bad hex field, oversized
          length, or checksum mismatch *)

val decode : buf:string -> pos:int -> (string * int, error) result
(** Decode the frame starting at byte [pos] of [buf]: the payload and
    the offset of the next frame. Never raises (a [pos] outside the
    buffer is simply an empty suffix, i.e. [Incomplete]). *)

type skip = {
  skip_pos : int;  (** offset of the malformed region *)
  skip_len : int;  (** bytes skipped before the next magic (or end) *)
  skip_error : error;  (** why decoding failed there (always [Malformed]) *)
}

type stream = {
  frames : string list;  (** decoded payloads, in stream order *)
  consumed : int;
      (** bytes fully dealt with: decoded frames plus skipped garbage —
          everything except a trailing [Incomplete] tail *)
  skipped : skip list;
      (** malformed regions resynced past, in stream order. Skipped
          bytes are consumed (they are permanently damaged — the frame
          is wholly present and wrong, or its header is garbage), but
          the frames behind them still decode. *)
  trailing : (int * error) option;
      (** an [Incomplete] tail: the stream ends mid-frame. Those bytes
          are {e not} consumed — they may be an append still in
          progress, so the next decode of a longer buffer picks them
          up (and if they never complete into a valid frame, a later
          append turns them into a [Malformed] skip). *)
}

val skipped_bytes : stream -> int
(** Total bytes covered by [skipped]. *)

val decode_stream : string -> stream
(** Decode every whole frame in the buffer, resyncing at the next
    ["APTG"] magic after a malformed region. Never raises. *)
