(** Persisting prefetch hints — the analog of the AutoFDO profile file
    that the paper's workflow hands from the profiling step to the LLVM
    pass ("a list of delinquent load PCs with their corresponding
    prefetch-distance and prefetch injection site", §3.4).

    The format is line-oriented text:
    {v
    # aptget prefetch hints v2
    # provenance: program=3f21c7 schema=2 options=lbr:20000,pebs:64,k:5
    pc=2051 distance=12 site=inner sweep=1 fp=9a0c1:44d2:2:7:1
    pc=11265 distance=3 site=outer sweep=7
    v}
    Blank lines and [#] comments are ignored, except that a comment
    announcing a hints-file version ([# aptget prefetch hints vN]) is
    validated — v1 (plain hints) and v2 (provenance + fingerprints) are
    accepted, anything newer is rejected so a file written by a future
    format revision fails loudly instead of being half-parsed — and a
    [# provenance:] comment is parsed as the profile's provenance
    block. The optional [fp=] field carries a load's structural
    fingerprint ([slice:shape:depth:len:loads], hashes in hex; see
    {!Aptget_ir.Fingerprint}) so {!Remap} can re-key the hint when its
    PC goes stale.

    Checked-in hint files go stale as the profiled program evolves, so
    there are two parsing modes: the strict one fails on the first
    malformed line, and the lenient one (for robustness runs) keeps
    every well-formed hint and reports each offending line with its
    line number. Duplicate [key=] fields within a line are an error in
    both modes rather than silently resolving to the first
    occurrence. *)

(** {2 Provenance and fingerprinted documents (v2)} *)

type provenance = {
  program : int;
      (** structural hash of the profiled program
          ({!Aptget_ir.Fingerprint.t.program}) — when it matches the
          current program, every PC is still exact and remapping is a
          no-op *)
  schema : int;  (** provenance-block schema version (currently 2) *)
  options : string;
      (** space-free summary of the profiler options that produced the
          hints (see {!Profiler.options_summary}) *)
}

val schema_version : int
(** Provenance-block schema version this writer emits (2). Files with a
    larger recorded schema are rejected. *)

type entry = {
  e_hint : Aptget_passes.Aptget_pass.hint;
  e_fp : Fingerprint.load_fp option;
      (** structural fingerprint of the hinted load; [lf_pc] equals the
          hint's [load_pc] *)
}

type doc = { prov : provenance option; entries : entry list }

val entries_of_hints : Aptget_passes.Aptget_pass.hint list -> entry list
(** Wrap bare hints as fingerprint-less entries. *)

val hints_of_doc : doc -> Aptget_passes.Aptget_pass.hint list

val doc_to_string : doc -> string
(** Serialise with the v2 header; the provenance comment is emitted
    when present, the [fp=] field per entry that carries one. *)

val doc_of_string : string -> (doc, string) result
(** Strict parse of either format version; reports the first offending
    line (with its line number) on error. Accepts fields in any order;
    [sweep] defaults to 1 when omitted. A v1 file is a document with no
    provenance and no fingerprints; {!hints_of_doc} gives its plain
    hints. *)

val doc_of_string_lenient : string -> doc * (int * string) list
(** Lenient parse: all well-formed entries (plus the provenance block
    if its line parsed), and a [(line_no, error)] record for every
    malformed or unsupported line. *)

val save_doc : path:string -> doc -> unit
(** Write {!doc_to_string} to a file atomically (write-to-temp + rename
    in the same directory): a crash mid-save leaves the previous file
    contents intact. *)

val load_doc : path:string -> (doc, string) result
(** Read and strictly parse a file; I/O problems are reported as
    [Error]. *)

val load_doc_lenient : path:string -> (doc * (int * string) list, string) result
(** Read and leniently parse a file; only I/O problems are [Error].
    Dropped lines are counted on the [store.salvage.hints_file]
    metric. *)

(** {2 v1 text (byte-compatible with earlier releases)} *)

val to_string : Aptget_passes.Aptget_pass.hint list -> string
(** Serialise, one hint per line, with the v1 version header (no
    provenance, no fingerprints — byte-identical to the historical
    writer). *)
