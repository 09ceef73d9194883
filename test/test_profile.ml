(* LBR analysis, the Eq. 1/Eq. 2 model, and the end-to-end profiler. *)

module Loop_stats = Aptget_profile.Loop_stats
module Model = Aptget_profile.Model
module Profiler = Aptget_profile.Profiler
module Sampler = Aptget_pmu.Sampler
module Lbr = Aptget_pmu.Lbr
module Memory = Aptget_mem.Memory
module Rng = Aptget_util.Rng
module Aptget_pass = Aptget_passes.Aptget_pass
module Inject = Aptget_passes.Inject

(* A sampler whose log holds one snapshot per list of (branch PC,
   cycle) entries, oldest first: the ring is cleared, refilled through
   the core's hook and snapshotted at the next period boundary. *)
let log snapshots =
  let s = Sampler.create ~lbr_period:1_000 ~lbr_size:64 () in
  List.iter
    (fun entries ->
      Lbr.clear (Sampler.lbr s);
      List.iter
        (fun (pc, cycle) -> Sampler.on_branch s ~branch_pc:pc ~target_pc:0 ~cycle)
        entries;
      Sampler.on_cycle s ~cycle:(Sampler.next_due s))
    snapshots;
  s

let sample entries = log [ entries ]

(* ---------------- Loop_stats ---------------- *)

let test_iteration_times_basic () =
  let s = sample [ (10, 100); (10, 150); (10, 230) ] in
  let times =
    Loop_stats.iteration_times s ~latch_pc:10 ~in_loop:(fun _ -> true)
  in
  Alcotest.(check (array (float 1e-9))) "deltas" [| 50.; 80. |] times;
  (* A window never spans two snapshots. *)
  let split = log [ [ (10, 100); (10, 150) ]; [ (10, 230); (10, 250) ] ] in
  Alcotest.(check (array (float 1e-9))) "per snapshot" [| 50.; 20. |]
    (Loop_stats.iteration_times split ~latch_pc:10 ~in_loop:(fun _ -> true))

let test_iteration_times_filters_foreign () =
  (* A foreign branch (99) between the two latch instances means the
     loop was exited: the delta must be discarded. *)
  let s = sample [ (10, 100); (99, 120); (10, 150); (10, 160) ] in
  let times =
    Loop_stats.iteration_times s ~latch_pc:10 ~in_loop:(fun pc -> pc = 10)
  in
  Alcotest.(check (array (float 1e-9))) "only clean window" [| 10. |] times

let test_iteration_times_in_loop_branches_ok () =
  (* branches inside the loop (e.g. an if diamond) don't break windows *)
  let s = sample [ (10, 100); (11, 120); (10, 150) ] in
  let times =
    Loop_stats.iteration_times s ~latch_pc:10 ~in_loop:(fun pc ->
        pc = 10 || pc = 11)
  in
  Alcotest.(check (array (float 1e-9))) "kept" [| 50. |] times

let test_trip_counts () =
  (* outer latch 20, inner latch 10: windows of 3 and 2 iterations *)
  let s =
    sample
      [ (20, 0); (10, 1); (10, 2); (10, 3); (20, 4); (10, 5); (10, 6); (20, 7) ]
  in
  let trips =
    Loop_stats.trip_counts s ~inner_latch_pc:10 ~outer_latch_pc:20
  in
  Alcotest.(check (array (float 1e-9))) "trips" [| 3.; 2. |] trips

let test_trip_counts_incomplete_window () =
  let s = sample [ (10, 1); (10, 2); (20, 3); (10, 4) ] in
  let trips =
    Loop_stats.trip_counts s ~inner_latch_pc:10 ~outer_latch_pc:20
  in
  Alcotest.(check int) "no complete window" 0 (Array.length trips)

let test_occurrences () =
  let s = sample [ (10, 1); (11, 2); (10, 3) ] in
  Alcotest.(check int) "two" 2 (Loop_stats.occurrences s ~pc:10);
  Alcotest.(check int) "zero" 0 (Loop_stats.occurrences s ~pc:42)

(* ---------------- Model ---------------- *)

let bimodal ~fast ~slow ~frac_slow ~n seed =
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let noise = Rng.float rng 6. -. 3. in
      if Rng.float rng 1.0 < frac_slow then slow +. noise else fast +. noise)

let test_model_bimodal_distance () =
  let times = bimodal ~fast:10. ~slow:260. ~frac_slow:0.6 ~n:4000 1 in
  match Model.distance_of_times times with
  | Some m ->
    Alcotest.(check bool)
      (Printf.sprintf "ic ~ 10 (got %.1f)" m.Model.ic_latency)
      true
      (m.Model.ic_latency > 5. && m.Model.ic_latency < 20.);
    Alcotest.(check bool)
      (Printf.sprintf "distance ~ 25 (got %d)" m.Model.distance)
      true
      (m.Model.distance >= 13 && m.Model.distance <= 50)
  | None -> Alcotest.fail "expected a model"

let test_model_too_few_samples () =
  Alcotest.(check bool) "too few" true
    (Model.distance_of_times [| 10.; 20. |] = None)

let test_model_uniform_times () =
  (* No memory component: all iterations take the same time. *)
  let times = Array.make 500 50. in
  Alcotest.(check bool) "not memory bound" true
    (Model.distance_of_times times = None)

let test_model_distance_clamped () =
  let times = bimodal ~fast:10. ~slow:1000. ~frac_slow:0.5 ~n:2000 7 in
  match Model.distance_of_times ~max_distance:64 times with
  | Some m -> Alcotest.(check bool) "clamped" true (m.Model.distance <= 64)
  | None -> Alcotest.fail "expected a model"

let test_model_naive_finder_works_too () =
  let times = bimodal ~fast:10. ~slow:260. ~frac_slow:0.6 ~n:4000 3 in
  match Model.distance_of_times ~finder:Model.Naive times with
  | Some m -> Alcotest.(check bool) "positive distance" true (m.Model.distance >= 1)
  | None -> Alcotest.fail "expected a model"

let test_choose_site () =
  (* Low trip count vs distance -> outer; high trip count -> inner. *)
  Alcotest.(check bool) "low trip -> outer" true
    (Model.choose_site ~k:5 ~distance:10 ~trip_count:(Some 4.) () = `Outer);
  Alcotest.(check bool) "high trip -> inner" true
    (Model.choose_site ~k:5 ~distance:10 ~trip_count:(Some 256.) () = `Inner);
  Alcotest.(check bool) "unknown trip -> inner" true
    (Model.choose_site ~k:5 ~distance:10 ~trip_count:None () = `Inner)

let prop_model_distance_positive =
  QCheck.Test.make ~name:"model distance always in [1, max]" ~count:50
    QCheck.(pair (int_bound 1000) (int_range 1 128))
    (fun (seed, maxd) ->
      let times = bimodal ~fast:8. ~slow:300. ~frac_slow:0.5 ~n:1000 seed in
      match Model.distance_of_times ~max_distance:maxd times with
      | Some m -> m.Model.distance >= 1 && m.Model.distance <= maxd
      | None -> true)

(* ---------------- Hints_file ---------------- *)

module Hints_file = Aptget_profile.Hints_file

(* Plain hints read through the document reader, the one reader the
   CLI and the daemon use. *)
let hints_of_string s =
  Result.map Hints_file.hints_of_doc (Hints_file.doc_of_string s)

let hints_of_string_lenient s =
  let doc, errors = Hints_file.doc_of_string_lenient s in
  (Hints_file.hints_of_doc doc, errors)

let test_hints_roundtrip () =
  let hints =
    [
      { Aptget_pass.load_pc = 2051; distance = 12; site = Inject.Inner; sweep = 1 };
      { Aptget_pass.load_pc = 11265; distance = 3; site = Inject.Outer; sweep = 7 };
    ]
  in
  match hints_of_string (Hints_file.to_string hints) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (parsed = hints)
  | Error e -> Alcotest.fail e

let test_hints_parse_flexible () =
  let text = "\n# comment\n  site=outer pc=5 distance=9  \n" in
  match hints_of_string text with
  | Ok [ h ] ->
    Alcotest.(check int) "pc" 5 h.Aptget_pass.load_pc;
    Alcotest.(check int) "default sweep" 1 h.Aptget_pass.sweep;
    Alcotest.(check bool) "site" true (h.Aptget_pass.site = Inject.Outer)
  | Ok _ -> Alcotest.fail "expected one hint"
  | Error e -> Alcotest.fail e

let test_hints_parse_errors () =
  List.iter
    (fun bad ->
      match hints_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad))
    [
      "pc=1 distance=2";              (* missing site *)
      "pc=x distance=2 site=inner";   (* bad int *)
      "pc=1 distance=2 site=middle";  (* bad site *)
      "pc=1 distance=2 site=inner bogus=3"; (* unknown field *)
      "just words";
    ]

let test_hints_file_io () =
  let path = Filename.temp_file "aptget_hints" ".txt" in
  let hints =
    [ { Aptget_pass.load_pc = 7; distance = 4; site = Inject.Inner; sweep = 1 } ]
  in
  Hints_file.save_doc ~path
    { Hints_file.prov = None; entries = Hints_file.entries_of_hints hints };
  (match Hints_file.load_doc ~path with
  | Ok doc ->
    Alcotest.(check bool) "load = save" true (Hints_file.hints_of_doc doc = hints)
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  match Hints_file.load_doc ~path:"/nonexistent/aptget" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_hints_bad_header_version () =
  let text = "# aptget prefetch hints v3\npc=1 distance=2 site=inner\n" in
  (match hints_of_string text with
  | Error e ->
    Alcotest.(check bool) "mentions the version" true
      (String.length e > 0
      && contains ~sub:"version" e)
  | Ok _ -> Alcotest.fail "accepted an unknown header version");
  (* A free-form comment that is not a version announcement is fine. *)
  match hints_of_string "# just a note\npc=1 distance=2 site=inner\n" with
  | Ok [ _ ] -> ()
  | Ok _ -> Alcotest.fail "expected one hint"
  | Error e -> Alcotest.fail e

let test_hints_negative_and_overflow_ints () =
  List.iter
    (fun bad ->
      match hints_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad))
    [
      "pc=-1 distance=2 site=inner";
      "pc=1 distance=-2 site=inner";
      "pc=1 distance=2 site=inner sweep=-3";
      "pc=99999999999999999999999999 distance=2 site=inner";
    ]

let test_hints_lenient_int_literals_rejected () =
  (* Regression: the integer fields used to go through bare
     [int_of_string_opt], which inherits OCaml literal lenience — a
     leading '+', '_' separators and radix prefixes all parsed. The
     writer never emits any of those, so the reader must not accept
     them. *)
  List.iter
    (fun bad ->
      match hints_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad))
    [
      "pc=+1 distance=2 site=inner";
      "pc=0x10 distance=2 site=inner";
      "pc=1 distance=1_0 site=inner";
      "pc=1 distance=2 site=inner sweep=+5";
      "pc=1 distance=0b11 site=inner";
      "pc=1 distance=2 site=inner sweep=0o7";
      (* fp decimal components are held to the same standard... *)
      "pc=1 distance=2 site=inner fp=ab:cd:+1:4:2";
      "pc=1 distance=2 site=inner fp=ab:cd:1:4_0:2";
      "pc=1 distance=2 site=inner fp=ab:cd:1:4:0x2";
    ];
  (* ...and so is the provenance schema field. *)
  List.iter
    (fun prov ->
      let text =
        String.concat "\n"
          [
            "# aptget prefetch hints v2";
            prov;
            "pc=1 distance=2 site=inner";
            "";
          ]
      in
      match Hints_file.doc_of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ prov))
    [
      "# provenance: program=ab schema=+2 options=defaults";
      "# provenance: program=ab schema=0x2 options=defaults";
    ]

let prop_hints_lenient_literals_rejected =
  QCheck.Test.make
    ~name:"lenient integer spellings never parse" ~count:100
    QCheck.(int_bound 100_000)
    (fun pc ->
      let rejected line =
        match hints_of_string line with Error _ -> true | Ok _ -> false
      in
      rejected (Printf.sprintf "pc=+%d distance=2 site=inner" pc)
      && rejected (Printf.sprintf "pc=0x%x distance=2 site=inner" pc)
      && rejected (Printf.sprintf "pc=%d distance=2_0 site=inner" pc)
      (* and the canonical spelling of the same values still parses *)
      && hints_of_string
           (Printf.sprintf "pc=%d distance=20 site=inner" pc)
         = Ok
             [
               {
                 Aptget_pass.load_pc = pc;
                 distance = 20;
                 site = Inject.Inner;
                 sweep = 1;
               };
             ])

let test_hints_duplicate_fields () =
  match hints_of_string "pc=1 pc=2 distance=3 site=inner" with
  | Error e ->
    Alcotest.(check bool) "names the duplicated key" true
      (contains ~sub:"duplicate" e
      && contains ~sub:"pc" e)
  | Ok _ -> Alcotest.fail "accepted a duplicated field"

let test_hints_truncated_file () =
  (* A file cut off mid-line: the strict parser fails, the lenient one
     keeps the complete lines and reports the torn one. *)
  let text =
    "# aptget prefetch hints v1\npc=2051 distance=12 site=inner\npc=11265 dis"
  in
  (match hints_of_string text with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict parse accepted a truncated file");
  let hints, errors = hints_of_string_lenient text in
  Alcotest.(check int) "complete lines kept" 1 (List.length hints);
  match errors with
  | [ (3, _) ] -> ()
  | _ -> Alcotest.fail "expected exactly one error, on line 3"

let test_hints_lenient_collects_all_errors () =
  let text =
    String.concat "\n"
      [
        "# aptget prefetch hints v3";      (* line 1: bad version *)
        "pc=5 distance=9 site=outer";      (* line 2: good *)
        "pc=x distance=2 site=inner";      (* line 3: bad int *)
        "";
        "pc=7 distance=4 site=inner";      (* line 5: good *)
        "pc=1 distance=2 site=middle";     (* line 6: bad site *)
      ]
  in
  let hints, errors = hints_of_string_lenient text in
  Alcotest.(check (list int)) "good hints, in order" [ 5; 7 ]
    (List.map (fun h -> h.Aptget_pass.load_pc) hints);
  Alcotest.(check (list int)) "error line numbers" [ 1; 3; 6 ]
    (List.map fst errors)

let test_hints_lenient_agrees_with_strict () =
  let text = "# aptget prefetch hints v1\npc=5 distance=9 site=outer sweep=2\n" in
  let hints, errors = hints_of_string_lenient text in
  Alcotest.(check int) "no errors on a clean file" 0 (List.length errors);
  Alcotest.(check bool) "same hints as strict" true
    (hints_of_string text = Ok hints)

let test_hints_roundtrip_stable () =
  (* Serialise -> parse -> serialise reproduces the exact same bytes:
     the writer is a fixed point of the parser. *)
  let hints =
    [
      { Aptget_pass.load_pc = 2051; distance = 12; site = Inject.Inner; sweep = 1 };
      { Aptget_pass.load_pc = 11265; distance = 3; site = Inject.Outer; sweep = 7 };
    ]
  in
  let once = Hints_file.to_string hints in
  match hints_of_string once with
  | Ok parsed ->
    Alcotest.(check string) "stable" once (Hints_file.to_string parsed)
  | Error e -> Alcotest.fail e

let prop_hints_roundtrip =
  QCheck.Test.make ~name:"hints serialisation roundtrips" ~count:100
    QCheck.(
      list_of_size Gen.(0 -- 20)
        (quad (int_bound 100_000) (int_range 1 128) bool (int_range 1 8)))
    (fun raw ->
      let hints =
        List.map
          (fun (pc, d, outer, sw) ->
            {
              Aptget_pass.load_pc = pc;
              distance = d;
              site = (if outer then Inject.Outer else Inject.Inner);
              sweep = sw;
            })
          raw
      in
      hints_of_string (Hints_file.to_string hints) = Ok hints)

(* ---------------- Hints_file v2 documents ---------------- *)

let fp ~pc ~slice ~shape ~depth ~len ~loads =
  {
    Fingerprint.lf_pc = pc;
    lf_depth = depth;
    lf_shape = shape;
    lf_slice = slice;
    lf_len = len;
    lf_loads = loads;
  }

let sample_doc =
  {
    Hints_file.prov =
      Some
        {
          Hints_file.program = 0x3f21c7;
          schema = Hints_file.schema_version;
          options = "lbr:20000,pebs:64,k:5";
        };
    entries =
      [
        {
          Hints_file.e_hint =
            { Aptget_pass.load_pc = 2051; distance = 12; site = Inject.Inner; sweep = 1 };
          e_fp = Some (fp ~pc:2051 ~slice:0x9a0c1 ~shape:0x44d2 ~depth:2 ~len:7 ~loads:1);
        };
        {
          Hints_file.e_hint =
            { Aptget_pass.load_pc = 11265; distance = 3; site = Inject.Outer; sweep = 7 };
          e_fp = None;
        };
      ];
  }

let test_doc_roundtrip () =
  match Hints_file.doc_of_string (Hints_file.doc_to_string sample_doc) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (parsed = sample_doc)
  | Error e -> Alcotest.fail e

let test_doc_reads_v1 () =
  (* A v1 file parses as a document without provenance/fingerprints,
     and the plain-hints view of a v2 document drops the extras. *)
  let hints =
    [ { Aptget_pass.load_pc = 7; distance = 4; site = Inject.Inner; sweep = 2 } ]
  in
  (match Hints_file.doc_of_string (Hints_file.to_string hints) with
  | Ok doc ->
    Alcotest.(check bool) "no provenance" true (doc.Hints_file.prov = None);
    Alcotest.(check bool) "hints preserved" true
      (Hints_file.hints_of_doc doc = hints)
  | Error e -> Alcotest.fail e);
  match hints_of_string (Hints_file.doc_to_string sample_doc) with
  | Ok hints ->
    Alcotest.(check (list int)) "v1 view of a v2 file" [ 2051; 11265 ]
      (List.map (fun h -> h.Aptget_pass.load_pc) hints)
  | Error e -> Alcotest.fail e

let test_doc_bad_fingerprints_rejected () =
  List.iter
    (fun bad ->
      match Hints_file.doc_of_string ("pc=1 distance=2 site=inner " ^ bad) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad))
    [
      "fp=1:2:3:4";          (* too few components *)
      "fp=1:2:3:4:5:6";      (* too many *)
      "fp=xyz:2:3:4:5";      (* not hex *)
      "fp=1:2:-3:4:5";       (* negative depth *)
      "fp=1:2:3:4:5 fp=1:2:3:4:5"; (* duplicated *)
    ]

let test_doc_bad_provenance_rejected () =
  List.iter
    (fun bad ->
      match Hints_file.doc_of_string (bad ^ "\npc=1 distance=2 site=inner\n") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad))
    [
      "# provenance: program=zz schema=2 options=x";
      "# provenance: program=1f options=x";
      "# provenance: program=1f schema=99 options=x"; (* future schema *)
      "# provenance: program=1f schema=2 options=x\n\
       # provenance: program=1f schema=2 options=x"; (* duplicated *)
    ]

let test_doc_lenient_line_numbers () =
  let text =
    String.concat "\n"
      [
        "# aptget prefetch hints v2";                      (* 1: ok *)
        "# provenance: program=zz schema=2 options=x";     (* 2: bad *)
        "pc=5 distance=9 site=outer fp=a:b:0:3:1";         (* 3: ok *)
        "pc=6 distance=9 site=outer fp=a:b";               (* 4: bad fp *)
        "# provenance: program=1f schema=2 options=x";     (* 5: ok *)
        "pc=x distance=2 site=inner";                      (* 6: bad int *)
      ]
  in
  let doc, errors = Hints_file.doc_of_string_lenient text in
  Alcotest.(check (list int)) "error lines" [ 2; 4; 6 ] (List.map fst errors);
  Alcotest.(check (list int)) "entries kept" [ 5 ]
    (List.map
       (fun e -> e.Hints_file.e_hint.Aptget_pass.load_pc)
       doc.Hints_file.entries);
  match doc.Hints_file.prov with
  | Some p -> Alcotest.(check int) "provenance from the good line" 0x1f p.Hints_file.program
  | None -> Alcotest.fail "expected the well-formed provenance block"

let prop_doc_roundtrip =
  (* Print -> parse identity for arbitrary valid documents, provenance
     block and per-hint fingerprints included. *)
  let entry_gen =
    QCheck.Gen.(
      map
        (fun ((pc, d, outer, sw), fp_opt) ->
          {
            Hints_file.e_hint =
              {
                Aptget_pass.load_pc = pc;
                distance = d;
                site = (if outer then Inject.Outer else Inject.Inner);
                sweep = sw;
              };
            e_fp =
              Option.map
                (fun ((slice, shape), (depth, len, loads)) ->
                  fp ~pc ~slice ~shape ~depth ~len ~loads)
                fp_opt;
          })
        (pair
           (quad (int_bound 100_000) (int_range 1 128) bool (int_range 1 8))
           (opt
              (pair
                 (pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
                 (triple (int_bound 9) (int_bound 64) (int_bound 8))))))
  in
  let doc_gen =
    QCheck.Gen.(
      map
        (fun (prov_opt, entries) ->
          {
            Hints_file.prov =
              Option.map
                (fun (program, opt_tag) ->
                  {
                    Hints_file.program;
                    schema = Hints_file.schema_version;
                    options = Printf.sprintf "opt:%d" opt_tag;
                  })
                prov_opt;
            entries;
          })
        (pair
           (opt (pair (int_bound 0x3FFFFFFF) (int_bound 1000)))
           (list_size (0 -- 20) entry_gen)))
  in
  QCheck.Test.make ~name:"hints v2 document roundtrips" ~count:100
    (QCheck.make doc_gen) (fun doc ->
      Hints_file.doc_of_string (Hints_file.doc_to_string doc) = Ok doc)

(* ---------------- Profiler end-to-end ---------------- *)

(* One profiling run: the kernel once with a sampler riding along, then
   the model fit on what it saw. *)
let profile (inst : Aptget_workloads.Workload.instance) =
  let sampler = Profiler.sampler Profiler.default_options in
  let baseline =
    Aptget_machine.Machine.execute ~sampler
      ~args:inst.Aptget_workloads.Workload.args
      ~mem:inst.Aptget_workloads.Workload.mem inst.Aptget_workloads.Workload.func
  in
  Profiler.refit ~baseline sampler inst.Aptget_workloads.Workload.func

let micro_instance () =
  let p =
    {
      Aptget_workloads.Micro.default_params with
      Aptget_workloads.Micro.total = 16_384;
      table_words = 1 lsl 19;
    }
  in
  (Aptget_workloads.Micro.build p, p)

let test_profiler_finds_delinquent_load () =
  let inst, _ = micro_instance () in
  let prof =
    profile inst
  in
  Alcotest.(check bool) "snapshots collected" true (prof.Profiler.lbr_snapshots > 0);
  Alcotest.(check bool) "pebs samples" true (prof.Profiler.pebs_samples > 0);
  match prof.Profiler.hints with
  | [ h ] ->
    let expected_pc =
      Aptget_workloads.Micro.delinquent_load_pc
        (fst (micro_instance ()))
    in
    Alcotest.(check int) "targets the indirect load" expected_pc
      h.Aptget_pass.load_pc;
    Alcotest.(check bool) "sane distance" true
      (h.Aptget_pass.distance >= 1 && h.Aptget_pass.distance <= 128)
  | hints ->
    Alcotest.fail (Printf.sprintf "expected exactly one hint, got %d" (List.length hints))

let test_profiler_skips_direct_loads () =
  let inst, _ = micro_instance () in
  let prof =
    profile inst
  in
  List.iter
    (fun (p : Profiler.load_profile) ->
      if p.Profiler.hint = None then
        Alcotest.(check bool) "documented reason" true
          (String.length p.Profiler.note > 0))
    prof.Profiler.profiles

let test_profiler_low_trip_chooses_outer () =
  let p =
    {
      Aptget_workloads.Micro.default_params with
      Aptget_workloads.Micro.total = 16_384;
      table_words = 1 lsl 19;
      inner = 4;
    }
  in
  let inst = Aptget_workloads.Micro.build p in
  let prof =
    profile inst
  in
  match prof.Profiler.hints with
  | h :: _ ->
    Alcotest.(check bool) "outer site" true (h.Aptget_pass.site = Inject.Outer)
  | [] -> Alcotest.fail "expected a hint"

let test_profiler_to_doc () =
  let inst, _ = micro_instance () in
  let func = inst.Aptget_workloads.Workload.func in
  let prof =
    profile inst
  in
  let doc = Profiler.to_doc prof in
  (match doc.Hints_file.prov with
  | Some p ->
    Alcotest.(check int) "program hash is the function's"
      (Fingerprint.fingerprint func).Fingerprint.program p.Hints_file.program;
    Alcotest.(check int) "schema" Hints_file.schema_version p.Hints_file.schema;
    Alcotest.(check bool) "options recorded" true
      (String.length p.Hints_file.options > 0)
  | None -> Alcotest.fail "expected a provenance block");
  Alcotest.(check int) "one entry per hint"
    (List.length prof.Profiler.hints)
    (List.length doc.Hints_file.entries);
  List.iter
    (fun (e : Hints_file.entry) ->
      match e.Hints_file.e_fp with
      | Some lf ->
        Alcotest.(check int) "fingerprint keyed by the hint's pc"
          e.Hints_file.e_hint.Aptget_pass.load_pc lf.Fingerprint.lf_pc
      | None -> Alcotest.fail "profiled hint without a fingerprint")
    doc.Hints_file.entries;
  (* And the document survives the file format. *)
  Alcotest.(check bool) "document roundtrips" true
    (Hints_file.doc_of_string (Hints_file.doc_to_string doc) = Ok doc)

let test_profiler_baseline_outcome_sane () =
  let inst, p = micro_instance () in
  let prof =
    profile inst
  in
  Alcotest.(check bool) "ran the kernel" true
    (prof.Profiler.baseline.Aptget_machine.Machine.instructions
    > p.Aptget_workloads.Micro.total)

let () =
  Alcotest.run "profile"
    [
      ( "loop_stats",
        [
          Alcotest.test_case "iteration times" `Quick test_iteration_times_basic;
          Alcotest.test_case "filters foreign" `Quick test_iteration_times_filters_foreign;
          Alcotest.test_case "in-loop branches ok" `Quick test_iteration_times_in_loop_branches_ok;
          Alcotest.test_case "trip counts" `Quick test_trip_counts;
          Alcotest.test_case "incomplete window" `Quick test_trip_counts_incomplete_window;
          Alcotest.test_case "occurrences" `Quick test_occurrences;
        ] );
      ( "model",
        [
          Alcotest.test_case "bimodal distance" `Quick test_model_bimodal_distance;
          Alcotest.test_case "too few samples" `Quick test_model_too_few_samples;
          Alcotest.test_case "uniform times" `Quick test_model_uniform_times;
          Alcotest.test_case "distance clamped" `Quick test_model_distance_clamped;
          Alcotest.test_case "naive finder" `Quick test_model_naive_finder_works_too;
          Alcotest.test_case "choose site" `Quick test_choose_site;
          QCheck_alcotest.to_alcotest prop_model_distance_positive;
        ] );
      ( "hints_file",
        [
          Alcotest.test_case "roundtrip" `Quick test_hints_roundtrip;
          Alcotest.test_case "flexible parse" `Quick test_hints_parse_flexible;
          Alcotest.test_case "parse errors" `Quick test_hints_parse_errors;
          Alcotest.test_case "file io" `Quick test_hints_file_io;
          Alcotest.test_case "bad header version" `Quick test_hints_bad_header_version;
          Alcotest.test_case "negative/overflow ints" `Quick test_hints_negative_and_overflow_ints;
          Alcotest.test_case "lenient int literals rejected" `Quick
            test_hints_lenient_int_literals_rejected;
          Alcotest.test_case "duplicate fields" `Quick test_hints_duplicate_fields;
          Alcotest.test_case "truncated file" `Quick test_hints_truncated_file;
          Alcotest.test_case "lenient collects errors" `Quick test_hints_lenient_collects_all_errors;
          Alcotest.test_case "lenient agrees with strict" `Quick test_hints_lenient_agrees_with_strict;
          Alcotest.test_case "roundtrip stable" `Quick test_hints_roundtrip_stable;
          QCheck_alcotest.to_alcotest prop_hints_roundtrip;
          QCheck_alcotest.to_alcotest prop_hints_lenient_literals_rejected;
        ] );
      ( "hints_file_v2",
        [
          Alcotest.test_case "doc roundtrip" `Quick test_doc_roundtrip;
          Alcotest.test_case "reads v1, degrades v2" `Quick test_doc_reads_v1;
          Alcotest.test_case "bad fingerprints" `Quick test_doc_bad_fingerprints_rejected;
          Alcotest.test_case "bad provenance" `Quick test_doc_bad_provenance_rejected;
          Alcotest.test_case "lenient line numbers" `Quick test_doc_lenient_line_numbers;
          QCheck_alcotest.to_alcotest prop_doc_roundtrip;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "finds delinquent load" `Quick test_profiler_finds_delinquent_load;
          Alcotest.test_case "skips direct loads" `Quick test_profiler_skips_direct_loads;
          Alcotest.test_case "low trip -> outer" `Quick test_profiler_low_trip_chooses_outer;
          Alcotest.test_case "to_doc provenance" `Quick test_profiler_to_doc;
          Alcotest.test_case "baseline sane" `Quick test_profiler_baseline_outcome_sane;
        ] );
    ]
