module Rng = Aptget_util.Rng
module Backoff = Aptget_util.Backoff
module Stats = Aptget_util.Stats
module Histogram = Aptget_util.Histogram
module Table = Aptget_util.Table
module Clock = Aptget_util.Clock

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_bad_bound () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 1) 0))

let test_rng_float_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 2.5)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = Array.init 10 (fun _ -> Rng.int64 a) in
  let ys = Array.init 10 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_uniformity () =
  let r = Rng.create 6 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let i = Rng.int r 8 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (abs (c - 10_000) < 800))
    buckets

let prop_permutation =
  QCheck.Test.make ~name:"permutation is a permutation" ~count:100
    QCheck.(pair small_int (int_bound 200))
    (fun (seed, n) ->
      let n = n + 1 in
      let p = Rng.permutation (Rng.create seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_shuffle_preserves =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      let b = Array.copy a in
      Rng.shuffle (Rng.create seed) b;
      List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b))

(* ---------------- Stats ---------------- *)

let test_summarize () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  check_float "mean" 2.5 s.Stats.mean;
  check_float "min" 1. s.Stats.min;
  check_float "max" 4. s.Stats.max

let test_summarize_empty () =
  let s = Stats.summarize [||] in
  Alcotest.(check int) "count" 0 s.Stats.count

let test_geomean () =
  check_float "geomean" 2. (Stats.geomean [| 1.; 4. |]);
  check_float "geomean of singleton" 3. (Stats.geomean [| 3. |]);
  check_float "empty" 1. (Stats.geomean [||])

let test_geomean_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive entry") (fun () ->
      ignore (Stats.geomean [| 1.; 0. |]))

let test_percentile () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p100" 5. (Stats.percentile xs 100.);
  check_float "median" 3. (Stats.median xs);
  check_float "p25" 2. (Stats.percentile xs 25.)

(* A single NaN must fail loudly: under polymorphic compare it would
   silently mis-sort and corrupt every order statistic downstream. *)
let test_nan_rejected () =
  Alcotest.check_raises "percentile NaN"
    (Invalid_argument "Stats.percentile: NaN sample") (fun () ->
      ignore (Stats.percentile [| 1.; Float.nan; 3. |] 50.));
  Alcotest.check_raises "median NaN"
    (Invalid_argument "Stats.percentile: NaN sample") (fun () ->
      ignore (Stats.median [| Float.nan |]));
  Alcotest.check_raises "summarize NaN"
    (Invalid_argument "Stats.summarize: NaN sample") (fun () ->
      ignore (Stats.summarize [| 0.; 0. /. 0. |]))

(* Known-answer pins for population vs sample stddev: for [2;4;6],
   population = sqrt(8/3), sample = sqrt(8/2) = 2. *)
let test_stddev_population_vs_sample () =
  let s = Stats.summarize [| 2.; 4.; 6. |] in
  check_float "population" (sqrt (8. /. 3.)) s.Stats.stddev;
  check_float "sample" 2. s.Stats.stddev_sample;
  let s1 = Stats.summarize [| 7. |] in
  check_float "singleton population" 0. s1.Stats.stddev;
  check_float "singleton sample" 0. s1.Stats.stddev_sample

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.)) (float_bound_inclusive 100.))
    (fun (l, p) ->
      let xs = Array.of_list l in
      let v = Stats.percentile xs p in
      let mn = Array.fold_left min xs.(0) xs in
      let mx = Array.fold_left max xs.(0) xs in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

(* ---------------- Histogram ---------------- *)

let test_histogram_basic () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  Histogram.add h 0.5;
  Histogram.add h 5.5;
  Histogram.add h 5.6;
  Alcotest.(check int) "total" 3 (Histogram.total h);
  let c = Histogram.counts h in
  check_float "bin 0" 1. c.(0);
  check_float "bin 5" 2. c.(5)

let test_histogram_clamps () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  Histogram.add h (-5.);
  Histogram.add h 100.;
  let c = Histogram.counts h in
  check_float "low clamped" 1. c.(0);
  check_float "high clamped" 1. c.(9);
  Alcotest.(check int) "nothing dropped" 2 (Histogram.total h)

let test_histogram_centers () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  check_float "center 0" 0.5 (Histogram.bin_center h 0);
  check_float "center 9" 9.5 (Histogram.bin_center h 9);
  check_float "width" 1. (Histogram.bin_width h)

let test_histogram_of_samples () =
  let h = Histogram.of_samples ~bins:16 [| 1.; 2.; 3. |] in
  Alcotest.(check int) "total" 3 (Histogram.total h)

let test_histogram_bad_args () =
  Alcotest.check_raises "lo >= hi" (Invalid_argument "Histogram.create: lo >= hi")
    (fun () -> ignore (Histogram.create ~lo:1. ~hi:1. ~bins:4))

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram total = samples" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 50.))
    (fun l ->
      let h = Histogram.of_samples (Array.of_list l) in
      Histogram.total h = List.length l)

(* ---------------- Clock ---------------- *)

(* The clamp is global mutable state shared with [Clock.now], so these
   tests only feed timestamps at or above the current high-water mark
   and assert relative behaviour, never absolute values. *)

let test_clock_monotonic_clamp () =
  let base = Clock.now () +. 1000. in
  check_float "advances to base" base (Clock.observe base);
  (* System clock steps backwards: reported time holds at the mark. *)
  check_float "backwards step clamped" base (Clock.observe (base -. 500.));
  check_float "still clamped" base (Clock.observe (base -. 0.001));
  (* Deltas across the step are never negative. *)
  let t1 = Clock.observe (base -. 250.) in
  Alcotest.(check bool) "delta >= 0" true (t1 -. base >= 0.);
  (* Once real time passes the mark, the clock moves again. *)
  check_float "resumes past mark" (base +. 1.) (Clock.observe (base +. 1.))

let test_clock_observe_max_of_history () =
  let base = Clock.now () +. 2000. in
  ignore (Clock.observe base);
  ignore (Clock.observe (base +. 5.));
  check_float "max of all observed" (base +. 5.) (Clock.observe (base +. 2.))

let test_clock_wall_non_negative () =
  let x, dt = Clock.wall (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 x;
  Alcotest.(check bool) "elapsed >= 0" true (dt >= 0.)

(* ---------------- Table ---------------- *)

let test_table_render () =
  let t = Table.create ~title:"T" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "333"
    || String.length l >= 3 && String.sub l 0 3 = "333"))

let test_table_too_wide () =
  let t = Table.create ~title:"T" ~header:[ "a" ] in
  Alcotest.check_raises "wide row"
    (Invalid_argument "Table.add_row: row wider than header") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_fmt () =
  Alcotest.(check string) "speedup" "1.30x" (Table.fmt_speedup 1.3);
  Alcotest.(check string) "pct" "65.4%" (Table.fmt_pct 0.654);
  Alcotest.(check string) "float" "2.50" (Table.fmt_float 2.5)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_permutation; prop_shuffle_preserves; prop_percentile_bounds;
      prop_histogram_total ]

(* ---------------- Backoff ---------------- *)

(* The factor is pinned byte-identically to the inline formula the
   campaign runner used before extraction: min(base^(n-1), cap). *)
let test_backoff_factor_pins () =
  let c = { Backoff.base = 2.0; cap = 4096.; jitter = 0. } in
  List.iter
    (fun (attempt, expected) ->
      check_float
        (Printf.sprintf "factor at attempt %d" attempt)
        expected
        (Backoff.factor c ~attempt))
    [ (1, 1.); (2, 2.); (3, 4.); (4, 8.); (12, 2048.); (13, 4096.); (14, 4096.); (30, 4096.) ];
  (* float-for-float identical to the historical inline expression,
     fractional bases included *)
  List.iter
    (fun base ->
      let c = { Backoff.base; cap = 4096.; jitter = 0. } in
      for attempt = 1 to 40 do
        let inline = Float.min (base ** float_of_int (attempt - 1)) 4096. in
        Alcotest.(check bool)
          (Printf.sprintf "base %g attempt %d bit-identical" base attempt)
          true
          (Int64.equal
             (Int64.bits_of_float inline)
             (Int64.bits_of_float (Backoff.factor c ~attempt)))
      done)
    [ 1.3; 1.5; 2.0; 3.0 ]

let test_backoff_jitter_zero_is_factor () =
  let c = { Backoff.base = 2.0; cap = 32.; jitter = 0. } in
  let t = Backoff.create ~seed:7 c in
  for attempt = 1 to 10 do
    check_float "jitter-free next = factor"
      (Backoff.factor c ~attempt)
      (Backoff.next t ~attempt)
  done

let test_backoff_jitter_bounds_and_determinism () =
  let c = { Backoff.default with Backoff.jitter = 0.5 } in
  let a = Backoff.create ~seed:11 c and b = Backoff.create ~seed:11 c in
  let other = Backoff.create ~seed:12 c in
  let saw_different = ref false in
  for attempt = 1 to 50 do
    let f = Backoff.factor c ~attempt in
    let v = Backoff.next a ~attempt in
    Alcotest.(check bool) "within [factor/2, factor]" true
      (v >= f *. 0.5 -. 1e-12 && v <= f +. 1e-12);
    check_float "same seed, same jitter" v (Backoff.next b ~attempt);
    if Backoff.next other ~attempt <> v then saw_different := true
  done;
  Alcotest.(check bool) "different seeds decorrelate" true !saw_different

let test_backoff_validate () =
  let bad c = Result.is_error (Backoff.validate c) in
  Alcotest.(check bool) "base < 1 rejected" true
    (bad { Backoff.base = 0.9; cap = 4.; jitter = 0. });
  Alcotest.(check bool) "cap < 1 rejected" true
    (bad { Backoff.base = 2.; cap = 0.5; jitter = 0. });
  Alcotest.(check bool) "jitter > 1 rejected" true
    (bad { Backoff.base = 2.; cap = 4.; jitter = 1.5 });
  Alcotest.(check bool) "jitter < 0 rejected" true
    (bad { Backoff.base = 2.; cap = 4.; jitter = -0.1 });
  Alcotest.(check bool) "default valid" true
    (Result.is_ok (Backoff.validate Backoff.default));
  Alcotest.check_raises "create rejects invalid"
    (Invalid_argument "Backoff.create: backoff base must be >= 1.0") (fun () ->
      ignore (Backoff.create { Backoff.base = 0.5; cap = 4.; jitter = 0. }))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bad bound" `Quick test_rng_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "campaign factor pins" `Quick
            test_backoff_factor_pins;
          Alcotest.test_case "jitter-free next = factor" `Quick
            test_backoff_jitter_zero_is_factor;
          Alcotest.test_case "jitter bounds + determinism" `Quick
            test_backoff_jitter_bounds_and_determinism;
          Alcotest.test_case "validation" `Quick test_backoff_validate;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "geomean non-positive" `Quick test_geomean_nonpositive;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
          Alcotest.test_case "stddev population vs sample" `Quick
            test_stddev_population_vs_sample;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "clamps" `Quick test_histogram_clamps;
          Alcotest.test_case "centers" `Quick test_histogram_centers;
          Alcotest.test_case "of_samples" `Quick test_histogram_of_samples;
          Alcotest.test_case "bad args" `Quick test_histogram_bad_args;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic clamp" `Quick test_clock_monotonic_clamp;
          Alcotest.test_case "observe max" `Quick test_clock_observe_max_of_history;
          Alcotest.test_case "wall non-negative" `Quick test_clock_wall_non_negative;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "too wide" `Quick test_table_too_wide;
          Alcotest.test_case "formatting" `Quick test_table_fmt;
        ] );
      ("properties", qsuite);
    ]
