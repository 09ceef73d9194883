(* Crash-safe state store: CRC vectors, atomic replace under simulated
   kill -9, journal recovery (torn tails, corrupt middles), and the
   crash-at-write-k resume property. *)

module Crc32 = Aptget_store.Crc32
module Crash = Aptget_store.Crash
module Atomic_file = Aptget_store.Atomic_file
module Journal = Aptget_store.Journal
module Quarantine = Aptget_core.Quarantine
module Hints_file = Aptget_profile.Hints_file
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject

let with_temp f =
  let path = Filename.temp_file "aptget-store-test" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let read_all path =
  match Atomic_file.read ~path with
  | Ok s -> s
  | Error e -> Alcotest.failf "read %s: %s" path e

(* ---------------- CRC-32 ---------------- *)

let test_crc_vectors () =
  (* The standard IEEE 802.3 check value. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check bool) "order matters" true
    (Crc32.string "ab" <> Crc32.string "ba")

let test_crc_hex () =
  let c = Crc32.string "some payload" in
  Alcotest.(check (option int)) "roundtrip" (Some c) (Crc32.of_hex (Crc32.hex c));
  Alcotest.(check (option int)) "too short" None (Crc32.of_hex "abc");
  Alcotest.(check (option int)) "not hex" None (Crc32.of_hex "xyzw1234");
  Alcotest.(check (option int)) "uppercase rejected" None (Crc32.of_hex "DEADBEEF")

(* ---------------- Atomic_file ---------------- *)

let test_atomic_roundtrip () =
  with_temp (fun path ->
      Atomic_file.write ~path "first version\n";
      Alcotest.(check string) "written" "first version\n" (read_all path);
      Atomic_file.write ~path "second version\n";
      Alcotest.(check string) "replaced" "second version\n" (read_all path);
      Alcotest.(check bool) "no tmp litter" false
        (Sys.file_exists (path ^ ".tmp")))

let test_atomic_crash_preserves_old () =
  (* Both crash modes die before the rename, so the destination must
     still hold the previous version byte for byte. *)
  List.iter
    (fun mode ->
      with_temp (fun path ->
          Atomic_file.write ~path "precious old content\n";
          let crash = Crash.after_writes ~mode 1 in
          (match Atomic_file.write ~crash ~path "new content\n" with
          | () -> Alcotest.fail "crash plan did not fire"
          | exception Crash.Crashed _ -> ());
          Alcotest.(check bool) "plan fired" true (Crash.crashed crash);
          Alcotest.(check string) "old content intact" "precious old content\n"
            (read_all path)))
    [ Crash.Clean; Crash.Torn ]

let test_atomic_crash_tmp_and_disarmed () =
  with_temp (fun path ->
      Atomic_file.write ~path "ok\n";
      let crash = Crash.after_writes 1 in
      (match Atomic_file.write ~crash ~path "next\n" with
      | () -> Alcotest.fail "crash plan did not fire"
      | exception Crash.Crashed _ -> ());
      (* The dying process runs no cleanup: the temp file is left for
         recovery to ignore, and the destination is untouched. *)
      Alcotest.(check bool) "tmp left behind" true
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check string) "destination untouched" "ok\n" (read_all path);
      Atomic_file.write ~crash:(Crash.none ()) ~path "replaced\n";
      Alcotest.(check string) "disarmed plan writes" "replaced\n"
        (read_all path))

(* ---------------- Journal recovery ---------------- *)

let test_recover_missing_and_empty () =
  with_temp (fun path ->
      Sys.remove path;
      let r = Journal.recover ~path in
      Alcotest.(check (list string)) "missing file" [] r.Journal.records;
      Alcotest.(check int) "missing dropped" 0 r.Journal.dropped;
      Atomic_file.write ~path "";
      let r = Journal.recover ~path in
      Alcotest.(check (list string)) "empty file" [] r.Journal.records;
      Alcotest.(check int) "empty dropped" 0 r.Journal.dropped;
      Alcotest.(check bool) "no error" true (r.Journal.first_error = None))

let append_all path payloads =
  let j, _ = Journal.open_ ~path () in
  List.iter (Journal.append j) payloads;
  Journal.close j

let test_journal_roundtrip () =
  with_temp (fun path ->
      Sys.remove path;
      append_all path [ "alpha"; "beta with spaces"; "gamma" ];
      let r = Journal.recover ~path in
      Alcotest.(check (list string))
        "all records back" [ "alpha"; "beta with spaces"; "gamma" ]
        r.Journal.records;
      Alcotest.(check int) "nothing dropped" 0 r.Journal.dropped;
      (* Reopen and extend: salvage-at-open must not lose the prefix. *)
      let j, rec2 = Journal.open_ ~path () in
      Alcotest.(check int) "reopen sees 3" 3
        (List.length rec2.Journal.records);
      Journal.append j "delta";
      Journal.close j;
      Alcotest.(check (list string))
        "extended" [ "alpha"; "beta with spaces"; "gamma"; "delta" ]
        (Journal.recover ~path).Journal.records)

let test_journal_rejects_newline () =
  with_temp (fun path ->
      Sys.remove path;
      let j, _ = Journal.open_ ~path () in
      Fun.protect
        ~finally:(fun () -> Journal.close j)
        (fun () ->
          match Journal.append j "two\nlines" with
          | () -> Alcotest.fail "newline payload must be rejected"
          | exception Invalid_argument _ -> ()))

let test_journal_bad_crc_drops_suffix () =
  with_temp (fun path ->
      Sys.remove path;
      append_all path [ "one"; "two"; "three" ];
      (* Corrupt the middle record's payload byte: its CRC no longer
         matches, so it and everything after it are untrustworthy. *)
      let contents = read_all path in
      let corrupted =
        String.map (fun c -> if c = 'w' then 'W' else c) contents
      in
      Atomic_file.write ~path corrupted;
      let r = Journal.recover ~path in
      Alcotest.(check (list string)) "valid prefix only" [ "one" ]
        r.Journal.records;
      Alcotest.(check int) "bad line + suffix dropped" 2 r.Journal.dropped;
      (match r.Journal.first_error with
      | Some (3, why) ->
        Alcotest.(check bool) "checksum error" true
          (why = "checksum mismatch")
      | Some (l, why) -> Alcotest.failf "wrong location %d: %s" l why
      | None -> Alcotest.fail "expected a first_error"))

let test_journal_torn_final_line () =
  with_temp (fun path ->
      Sys.remove path;
      append_all path [ "one"; "two" ];
      let contents = read_all path in
      (* Tear mid-way through the last record line (drop the trailing
         newline and a few bytes): classic crashed-append artifact. *)
      Atomic_file.write ~path
        (String.sub contents 0 (String.length contents - 4));
      let r = Journal.recover ~path in
      Alcotest.(check (list string)) "prefix survives" [ "one" ]
        r.Journal.records;
      Alcotest.(check int) "torn line dropped" 1 r.Journal.dropped;
      (* Opening for append salvages: the file is rewritten clean and
         new appends extend the salvaged prefix. *)
      let j, rec_ = Journal.open_ ~path () in
      Alcotest.(check int) "open reports the drop" 1 rec_.Journal.dropped;
      Journal.append j "three";
      Journal.close j;
      let r2 = Journal.recover ~path in
      Alcotest.(check (list string)) "clean after salvage+append"
        [ "one"; "three" ] r2.Journal.records;
      Alcotest.(check int) "no damage left" 0 r2.Journal.dropped)

(* The acceptance property: append n records with a kill planned at
   store write k. Clean kill: exactly the first k records are
   recoverable. Torn kill: the k-th write is half-written, so exactly
   the first k-1 records are recoverable and the tear is detected (not
   parsed as garbage). *)
let crash_recover_property =
  QCheck.Test.make ~count:100
    ~name:"journal: crash at write k recovers exactly the prefix"
    QCheck.(
      pair (int_range 1 12)
        (pair (int_range 1 12) (oneofl [ Crash.Clean; Crash.Torn ])))
    (fun (n, (k_raw, mode)) ->
      QCheck.assume (k_raw <= n);
      let k = k_raw in
      with_temp (fun path ->
          Sys.remove path;
          let payloads =
            List.init n (fun i -> Printf.sprintf "trial=t%d status=ok" i)
          in
          let crash = Crash.after_writes ~mode k in
          let j, _ = Journal.open_ ~crash ~path () in
          let wrote =
            try
              List.iter (Journal.append j) payloads;
              n
            with Crash.Crashed _ -> Crash.writes_seen crash
          in
          (* No cleanup past the kill: recovery happens on the raw file
             (close would flush a torn buffer tail, which a real kill -9
             would not). *)
          let r = Journal.recover ~path in
          let expect = match mode with Crash.Clean -> k | Crash.Torn -> k - 1 in
          wrote = k
          && r.Journal.records = List.filteri (fun i _ -> i < expect) payloads
          && r.Journal.dropped = (match mode with Crash.Clean -> 0 | Crash.Torn -> 1)))

(* ---------------- Quarantine on the store ---------------- *)

let q_entry w s =
  {
    Quarantine.q_workload = w;
    q_program = 0xabc;
    q_hints = 0xdef;
    q_speedup = s;
  }

let test_quarantine_sorted_stable () =
  with_temp (fun path ->
      Sys.remove path;
      let q = Quarantine.create ~path () in
      Quarantine.add q (q_entry "zeta" 0.91);
      Quarantine.add q (q_entry "alpha" 0.85);
      Quarantine.add q (q_entry "mid" 0.95);
      let first = read_all path in
      (* Re-adding the same keys in another order must produce the same
         bytes: the save is sorted by key, so the file is diffable. *)
      let q2 = Quarantine.create ~path:(path ^ ".b") () in
      Fun.protect
        ~finally:(fun () ->
          try Sys.remove (path ^ ".b") with Sys_error _ -> ())
        (fun () ->
          Quarantine.add q2 (q_entry "mid" 0.95);
          Quarantine.add q2 (q_entry "zeta" 0.91);
          Quarantine.add q2 (q_entry "alpha" 0.85);
          Alcotest.(check string) "byte-stable sorted save" first
            (read_all (path ^ ".b")));
      let names =
        List.map
          (fun (e : Quarantine.entry) -> e.Quarantine.q_workload)
          (Quarantine.entries q)
      in
      Alcotest.(check (list string)) "entries sorted"
        [ "alpha"; "mid"; "zeta" ] names)

let test_quarantine_crash_preserves_file () =
  with_temp (fun path ->
      Sys.remove path;
      let q = Quarantine.create ~path () in
      Quarantine.add q (q_entry "keep" 0.9);
      let before = read_all path in
      let crash = Crash.after_writes ~mode:Crash.Torn 1 in
      let q2 = Quarantine.create ~path ~crash () in
      (match Quarantine.add q2 (q_entry "lost" 0.8) with
      | () -> Alcotest.fail "crash plan did not fire"
      | exception Crash.Crashed _ -> ());
      Alcotest.(check string) "file untouched by torn persist" before
        (read_all path);
      let q3 = Quarantine.create ~path () in
      Alcotest.(check int) "reload sees the old entry" 1
        (List.length (Quarantine.entries q3));
      Alcotest.(check (list (pair int string))) "no parse errors" []
        (Quarantine.load_errors q3))

let test_quarantine_corrupt_lines_counted () =
  with_temp (fun path ->
      Sys.remove path;
      let q = Quarantine.create ~path () in
      Quarantine.add q (q_entry "good" 0.9);
      let contents = read_all path in
      Atomic_file.write ~path (contents ^ "garbage not an entry\n");
      let q2 = Quarantine.create ~path () in
      Alcotest.(check int) "good entry kept" 1
        (List.length (Quarantine.entries q2));
      (match Quarantine.load_errors q2 with
      | [ (_, why) ] ->
        Alcotest.(check bool) "reason mentions the line" true
          (String.length why > 0)
      | other ->
        Alcotest.failf "expected one load error, got %d" (List.length other)))

(* ---------------- Hints files on the store ---------------- *)

let some_hints =
  [
    { Aptget_pass.load_pc = 12; distance = 8; site = Inject.Inner; sweep = 1 };
    { Aptget_pass.load_pc = 40; distance = 3; site = Inject.Outer; sweep = 4 };
  ]

let test_hints_save_atomic_under_crash () =
  with_temp (fun path ->
      Atomic_file.write ~path (Hints_file.to_string some_hints);
      let before = read_all path in
      (* Tear the temp-file write of an overwriting save by hand: the
         destination must be the old version, never a mixture. *)
      let crash = Crash.after_writes ~mode:Crash.Torn 1 in
      (match
         Atomic_file.write ~crash ~path
           (Hints_file.to_string (List.rev some_hints))
       with
      | () -> Alcotest.fail "crash plan did not fire"
      | exception Crash.Crashed _ -> ());
      Alcotest.(check string) "old hints intact" before (read_all path);
      match Hints_file.load_doc ~path with
      | Ok doc ->
        Alcotest.(check int) "still parses" 2
          (List.length (Hints_file.hints_of_doc doc))
      | Error e -> Alcotest.failf "load after crash: %s" e)

let test_hints_torn_tail_lenient () =
  with_temp (fun path ->
      Atomic_file.write ~path (Hints_file.to_string some_hints);
      let contents = read_all path in
      (* Simulate a non-atomic writer crashing mid-append: the final
         line is torn. The lenient loader keeps every whole hint and
         counts the fragment. *)
      Atomic_file.write ~path
        (String.sub contents 0 (String.length contents - 4));
      match Hints_file.load_doc_lenient ~path with
      | Ok (doc, errors) ->
        Alcotest.(check int) "whole hints kept" 1
          (List.length (Hints_file.hints_of_doc doc));
        Alcotest.(check int) "torn line counted" 1 (List.length errors)
      | Error e -> Alcotest.failf "lenient load: %s" e)

let () =
  Alcotest.run "aptget-store"
    [
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick test_crc_vectors;
          Alcotest.test_case "hex" `Quick test_crc_hex;
        ] );
      ( "atomic-file",
        [
          Alcotest.test_case "roundtrip" `Quick test_atomic_roundtrip;
          Alcotest.test_case "crash preserves old" `Quick
            test_atomic_crash_preserves_old;
          Alcotest.test_case "crash leaves tmp, disarmed writes" `Quick
            test_atomic_crash_tmp_and_disarmed;
        ] );
      ( "journal",
        [
          Alcotest.test_case "missing and empty" `Quick
            test_recover_missing_and_empty;
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "newline rejected" `Quick
            test_journal_rejects_newline;
          Alcotest.test_case "bad crc drops suffix" `Quick
            test_journal_bad_crc_drops_suffix;
          Alcotest.test_case "torn final line" `Quick
            test_journal_torn_final_line;
          QCheck_alcotest.to_alcotest crash_recover_property;
        ] );
      ( "quarantine-store",
        [
          Alcotest.test_case "sorted byte-stable save" `Quick
            test_quarantine_sorted_stable;
          Alcotest.test_case "crash preserves file" `Quick
            test_quarantine_crash_preserves_file;
          Alcotest.test_case "corrupt lines counted" `Quick
            test_quarantine_corrupt_lines_counted;
        ] );
      ( "hints-store",
        [
          Alcotest.test_case "atomic under crash" `Quick
            test_hints_save_atomic_under_crash;
          Alcotest.test_case "torn tail lenient" `Quick
            test_hints_torn_tail_lenient;
        ] );
    ]
