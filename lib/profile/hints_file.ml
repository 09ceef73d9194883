module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject

let header_prefix = "# aptget prefetch hints "
let v1 = "v1"
let v2 = "v2"
let header_v1 = header_prefix ^ v1
let header_v2 = header_prefix ^ v2
let provenance_prefix = "# provenance:"
let schema_version = 2

type provenance = { program : int; schema : int; options : string }

type entry = {
  e_hint : Aptget_pass.hint;
  e_fp : Fingerprint.load_fp option;
}

type doc = { prov : provenance option; entries : entry list }

let entries_of_hints hints =
  List.map (fun h -> { e_hint = h; e_fp = None }) hints

let hints_of_doc doc = List.map (fun e -> e.e_hint) doc.entries

(* ------------------------------------------------------------------ *)
(* Printing *)

let hint_to_line (h : Aptget_pass.hint) =
  Printf.sprintf "pc=%d distance=%d site=%s sweep=%d" h.Aptget_pass.load_pc
    h.Aptget_pass.distance
    (Inject.site_to_string h.Aptget_pass.site)
    h.Aptget_pass.sweep

let fp_to_field (fp : Fingerprint.load_fp) =
  Printf.sprintf "fp=%s:%s:%d:%d:%d"
    (Fingerprint.hex fp.Fingerprint.lf_slice)
    (Fingerprint.hex fp.Fingerprint.lf_shape)
    fp.Fingerprint.lf_depth fp.Fingerprint.lf_len fp.Fingerprint.lf_loads

let entry_to_line e =
  match e.e_fp with
  | None -> hint_to_line e.e_hint
  | Some fp -> hint_to_line e.e_hint ^ " " ^ fp_to_field fp

let provenance_to_line p =
  Printf.sprintf "%s program=%s schema=%d options=%s" provenance_prefix
    (Fingerprint.hex p.program) p.schema p.options

let to_string hints =
  String.concat "\n"
    ((header_v1 :: List.map hint_to_line hints) @ [ "" ])

let doc_to_string doc =
  let prov = match doc.prov with None -> [] | Some p -> [ provenance_to_line p ] in
  String.concat "\n"
    (((header_v2 :: prov) @ List.map entry_to_line doc.entries) @ [ "" ])

(* ------------------------------------------------------------------ *)
(* Parsing *)

(* Hashes are persisted in lower-case hex (they are non-negative, so no
   sign concerns on the way back in). *)
let hex_of_string_opt s =
  if s = "" then None
  else if String.exists (fun c -> not (('0' <= c && c <= '9')
                                       || ('a' <= c && c <= 'f'))) s
  then None
  else int_of_string_opt ("0x" ^ s)

(* Decimal fields go through this, never bare [int_of_string_opt]: the
   latter inherits OCaml literal lenience and silently accepts "+5",
   "1_0" and radix prefixes like "0x10" — none of which this format
   ever writes, so none should read back. *)
let dec_of_string_opt s =
  if s = "" || String.exists (fun c -> c < '0' || c > '9') s then None
  else int_of_string_opt s

let parse_fp line value =
  match String.split_on_char ':' value with
  | [ slice; shape; depth; len; loads ] -> (
    match
      ( hex_of_string_opt slice,
        hex_of_string_opt shape,
        dec_of_string_opt depth,
        dec_of_string_opt len,
        dec_of_string_opt loads )
    with
    | Some sl, Some sh, Some d, Some l, Some lo
      when d >= 0 && l >= 0 && lo >= 0 ->
      Ok
        {
          (* patched to the hint's pc once the whole line has parsed *)
          Fingerprint.lf_pc = 0;
          lf_depth = d;
          lf_shape = sh;
          lf_slice = sl;
          lf_len = l;
          lf_loads = lo;
        }
    | _ -> Error (Printf.sprintf "bad fingerprint %S in %S" value line))
  | _ ->
    Error
      (Printf.sprintf
         "bad fingerprint %S in %S (expected slice:shape:depth:len:loads)"
         value line)

let parse_field line (key, value) =
  match key with
  | "pc" | "distance" | "sweep" -> (
    match dec_of_string_opt value with
    | Some v -> Ok (key, `Int v)
    | _ -> Error (Printf.sprintf "bad integer %S in %S" value line))
  | "site" -> (
    match value with
    | "inner" -> Ok (key, `Site Inject.Inner)
    | "outer" -> Ok (key, `Site Inject.Outer)
    | _ -> Error (Printf.sprintf "bad site %S in %S" value line))
  | "fp" -> (
    match parse_fp line value with
    | Ok fp -> Ok (key, `Fp fp)
    | Error e -> Error e)
  | _ -> Error (Printf.sprintf "unknown field %S in %S" key line)

let rec duplicate_key = function
  | [] -> None
  | (k, _) :: rest ->
    if List.mem_assoc k rest then Some k else duplicate_key rest

let split_fields line =
  String.split_on_char ' ' line
  |> List.filter (fun s -> s <> "")
  |> List.map (fun part ->
         match String.index_opt part '=' with
         | Some i ->
           Ok
             ( String.sub part 0 i,
               String.sub part (i + 1) (String.length part - i - 1) )
         | None -> Error (Printf.sprintf "expected key=value, got %S" part))

let rec collect acc = function
  | [] -> Ok (List.rev acc)
  | Ok kv :: rest -> collect (kv :: acc) rest
  | Error e :: _ -> Error e

let parse_line line =
  let fields =
    List.map
      (fun part ->
        match part with
        | Ok (k, v) -> parse_field line (k, v)
        | Error e -> Error e)
      (split_fields line)
  in
  match collect [] fields with
  | Error e -> Error e
  | Ok kvs -> (
    match duplicate_key kvs with
    | Some k -> Error (Printf.sprintf "duplicate field %S in %S" k line)
    | None -> (
      let field k = List.assoc_opt k kvs in
      match (field "pc", field "distance", field "site") with
      | Some (`Int pc), Some (`Int distance), Some (`Site site) ->
        let sweep =
          match field "sweep" with Some (`Int s) -> max 1 s | _ -> 1
        in
        let e_fp =
          match field "fp" with
          | Some (`Fp fp) -> Some { fp with Fingerprint.lf_pc = pc }
          | _ -> None
        in
        Ok { e_hint = { Aptget_pass.load_pc = pc; distance; site; sweep };
             e_fp }
      | _ -> Error (Printf.sprintf "missing pc/distance/site in %S" line)))

(* A [#] line is normally a free-form comment, but one that announces a
   hints-file version must announce a version we understand. *)
let check_header t =
  if String.length t >= String.length header_prefix
     && String.sub t 0 (String.length header_prefix) = header_prefix
  then begin
    let v =
      String.trim
        (String.sub t
           (String.length header_prefix)
           (String.length t - String.length header_prefix))
    in
    if v = v1 || v = v2 then Ok ()
    else
      Error
        (Printf.sprintf "unsupported hints file version %S (expected %S or %S)"
           v v1 v2)
  end
  else Ok ()

let is_provenance t =
  String.length t >= String.length provenance_prefix
  && String.sub t 0 (String.length provenance_prefix) = provenance_prefix

let parse_provenance line =
  let rest =
    String.sub line
      (String.length provenance_prefix)
      (String.length line - String.length provenance_prefix)
  in
  match collect [] (split_fields rest) with
  | Error e -> Error e
  | Ok kvs -> (
    match duplicate_key kvs with
    | Some k -> Error (Printf.sprintf "duplicate field %S in %S" k line)
    | None -> (
      let field k = List.assoc_opt k kvs in
      match (field "program", field "schema", field "options") with
      | Some program, Some schema, Some options -> (
        match (hex_of_string_opt program, dec_of_string_opt schema) with
        | Some program, Some schema when schema >= 1 ->
          if schema > schema_version then
            Error
              (Printf.sprintf "unsupported provenance schema %d (max %d)"
                 schema schema_version)
          else Ok { program; schema; options }
        | _ ->
          Error (Printf.sprintf "bad program/schema value in %S" line))
      | _ ->
        Error (Printf.sprintf "missing program/schema/options in %S" line)))

let parse s =
  let lines = String.split_on_char '\n' s in
  let entries = ref [] in
  let errors = ref [] in
  let prov = ref None in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let t = String.trim line in
      if t = "" then ()
      else if t.[0] = '#' then begin
        if is_provenance t then
          match parse_provenance t with
          | Ok p -> (
            match !prov with
            | None -> prov := Some p
            | Some _ ->
              errors := (lineno, "duplicate provenance block") :: !errors)
          | Error e -> errors := (lineno, e) :: !errors
        else
          match check_header t with
          | Ok () -> ()
          | Error e -> errors := (lineno, e) :: !errors
      end
      else
        match parse_line t with
        | Ok e -> entries := e :: !entries
        | Error e -> errors := (lineno, e) :: !errors)
    lines;
  ({ prov = !prov; entries = List.rev !entries }, List.rev !errors)

let doc_of_string s =
  match parse s with
  | doc, [] -> Ok doc
  | _, (lineno, e) :: _ -> Error (Printf.sprintf "line %d: %s" lineno e)

let doc_of_string_lenient = parse

(* Atomic replace (temp + rename): [open_out] would truncate in place,
   so a crash mid-write could destroy the only copy of a hints file.
   After the rename the file is either the old version or the new one,
   never a torn mixture. *)
let write_file path contents = Aptget_store.Atomic_file.write ~path contents

let save_doc ~path doc = write_file path (doc_to_string doc)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Lenient loads salvage what they can; the lines they drop are bit-rot
   an operator should be able to see, so the count also lands on the
   obs registry (a no-op when metrics are off). *)
let count_salvage errors =
  match List.length errors with
  | 0 -> ()
  | n -> Aptget_obs.Metrics.incr ~by:n "store.salvage.hints_file"

let load_doc ~path =
  match read_file path with
  | contents -> doc_of_string contents
  | exception Sys_error e -> Error e

let load_doc_lenient ~path =
  match read_file path with
  | contents ->
    let doc, errors = doc_of_string_lenient contents in
    count_salvage errors;
    Ok (doc, errors)
  | exception Sys_error e -> Error e
