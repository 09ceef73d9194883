(* Framing. The header is fixed-width ASCII so a human can read a
   spool file with [xxd] (or plain [less]), and so decode needs no
   state beyond an offset. *)

module Crc32 = Aptget_store.Crc32

let magic = "APTG"

let header_len = 20 (* 4 magic + 8 crc + 8 len *)

let max_payload = 16 * 1024 * 1024

let encode payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Frame.encode: payload too large";
  String.concat ""
    [ magic; Crc32.hex (Crc32.string payload); Printf.sprintf "%08x" n; payload ]

type error =
  | Incomplete of { have : int; need : int }
  | Malformed of string

let decode ~buf ~pos =
  let len = String.length buf in
  let avail = if pos >= len then 0 else len - pos in
  if avail < header_len then Error (Incomplete { have = avail; need = header_len })
  else if String.sub buf pos 4 <> magic then Error (Malformed "bad magic")
  else
    match
      ( Crc32.of_hex (String.sub buf (pos + 4) 8),
        Crc32.of_hex (String.sub buf (pos + 12) 8) )
    with
    | None, _ -> Error (Malformed "bad checksum field")
    | _, None -> Error (Malformed "bad length field")
    | Some crc, Some n ->
      if n > max_payload then Error (Malformed "oversized payload")
      else if avail < header_len + n then
        Error (Incomplete { have = avail; need = header_len + n })
      else
        let payload = String.sub buf (pos + header_len) n in
        if Crc32.string payload <> crc then Error (Malformed "checksum mismatch")
        else Ok (payload, pos + header_len + n)

type skip = { skip_pos : int; skip_len : int; skip_error : error }

type stream = {
  frames : string list;
  consumed : int;
  skipped : skip list;
  trailing : (int * error) option;
}

let skipped_bytes s = List.fold_left (fun n k -> n + k.skip_len) 0 s.skipped

(* First occurrence of the magic at or after [pos] (candidate resync
   point after corruption). *)
let find_magic buf pos =
  let last = String.length buf - String.length magic in
  let rec go i =
    if i > last then None
    else if
      buf.[i] = 'A' && buf.[i + 1] = 'P' && buf.[i + 2] = 'T' && buf.[i + 3] = 'G'
    then Some i
    else go (i + 1)
  in
  go (max pos 0)

let decode_stream buf =
  let len = String.length buf in
  let rec go acc skips pos =
    if pos >= len then
      { frames = List.rev acc; consumed = len; skipped = List.rev skips;
        trailing = None }
    else
      match decode ~buf ~pos with
      | Ok (payload, next) -> go (payload :: acc) skips next
      | Error (Incomplete _ as e) ->
        (* Only ever at the tail: the bytes may still be an append in
           progress, so they are left unconsumed for the next look. *)
        { frames = List.rev acc; consumed = pos; skipped = List.rev skips;
          trailing = Some (pos, e) }
      | Error (Malformed _ as e) ->
        (* Permanent damage (the whole frame is present and wrong, or
           the header is garbage): resync at the next magic so one
           corrupted frame cannot swallow every request behind it. *)
        let next = match find_magic buf (pos + 1) with Some i -> i | None -> len in
        go acc ({ skip_pos = pos; skip_len = next - pos; skip_error = e } :: skips)
          next
  in
  go [] [] 0
