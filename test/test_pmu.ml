module Lbr = Aptget_pmu.Lbr
module Sampler = Aptget_pmu.Sampler
module Faults = Aptget_pmu.Faults

(* ---------------- Lbr ---------------- *)

let test_lbr_empty () =
  let l = Lbr.create () in
  Alcotest.(check int) "default size" 32 (Lbr.size l);
  Alcotest.(check int) "empty" 0 (Array.length (Lbr.snapshot l))

let test_lbr_partial_fill () =
  let l = Lbr.create ~size:4 () in
  Lbr.record l ~branch_pc:1 ~target_pc:10 ~cycle:100;
  Lbr.record l ~branch_pc:2 ~target_pc:20 ~cycle:200;
  let s = Lbr.snapshot l in
  Alcotest.(check int) "two entries" 2 (Array.length s);
  Alcotest.(check int) "oldest first" 1 s.(0).Lbr.branch_pc;
  Alcotest.(check int) "newest last" 2 s.(1).Lbr.branch_pc

let test_lbr_wraparound () =
  let l = Lbr.create ~size:3 () in
  for i = 1 to 5 do
    Lbr.record l ~branch_pc:i ~target_pc:0 ~cycle:(i * 10)
  done;
  let s = Lbr.snapshot l in
  Alcotest.(check int) "capped at size" 3 (Array.length s);
  Alcotest.(check (list int)) "last three, chronological" [ 3; 4; 5 ]
    (Array.to_list (Array.map (fun e -> e.Lbr.branch_pc) s))

let test_lbr_cycles_monotone () =
  let l = Lbr.create ~size:8 () in
  for i = 1 to 20 do
    Lbr.record l ~branch_pc:i ~target_pc:0 ~cycle:(i * 7)
  done;
  let s = Lbr.snapshot l in
  for i = 0 to Array.length s - 2 do
    Alcotest.(check bool) "monotone cycles" true (s.(i).Lbr.cycle < s.(i + 1).Lbr.cycle)
  done

let test_lbr_clear () =
  let l = Lbr.create ~size:4 () in
  Lbr.record l ~branch_pc:1 ~target_pc:0 ~cycle:0;
  Lbr.clear l;
  Alcotest.(check int) "cleared" 0 (Array.length (Lbr.snapshot l))

let prop_lbr_keeps_most_recent =
  QCheck.Test.make ~name:"snapshot is the most recent suffix" ~count:100
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(0 -- 100) small_nat))
    (fun (size, pcs) ->
      let l = Lbr.create ~size () in
      List.iteri (fun i pc -> Lbr.record l ~branch_pc:pc ~target_pc:0 ~cycle:i) pcs;
      let s = Array.to_list (Array.map (fun e -> e.Lbr.branch_pc) (Lbr.snapshot l)) in
      let expected =
        let n = List.length pcs in
        let keep = min size n in
        List.filteri (fun i _ -> i >= n - keep) pcs
      in
      s = expected)

(* ---------------- Sampler ---------------- *)

let test_sampler_lbr_period () =
  let s = Sampler.create ~lbr_period:100 () in
  Sampler.on_cycle s ~cycle:50;
  Alcotest.(check int) "before period: none" 0 (List.length (Sampler.lbr_samples s));
  Sampler.on_cycle s ~cycle:100;
  Alcotest.(check int) "at period: one" 1 (List.length (Sampler.lbr_samples s));
  Sampler.on_cycle s ~cycle:150;
  Alcotest.(check int) "no resample within period" 1
    (List.length (Sampler.lbr_samples s));
  Sampler.on_cycle s ~cycle:205;
  Alcotest.(check int) "next period" 2 (List.length (Sampler.lbr_samples s))

(* The compiled engine's event horizon reads [next_due]: it must be
   the first cycle at which [on_cycle] samples, move past each sample,
   and restart from the epoch on [reset]. *)
let test_sampler_next_due () =
  let s = Sampler.create ~lbr_period:100 () in
  Alcotest.(check int) "first due" 100 (Sampler.next_due s);
  Sampler.on_cycle s ~cycle:99;
  Alcotest.(check int) "nothing before due" 0 (List.length (Sampler.lbr_samples s));
  Sampler.on_cycle s ~cycle:100;
  Alcotest.(check int) "sampled at due" 1 (List.length (Sampler.lbr_samples s));
  Alcotest.(check int) "moves one period on" 200 (Sampler.next_due s);
  Sampler.on_cycle s ~cycle:437;
  Alcotest.(check int) "moves past a long stall" 500 (Sampler.next_due s);
  Sampler.reset ~epoch_cycle:40 s;
  Alcotest.(check int) "reset restarts at the epoch" 140 (Sampler.next_due s)

let test_sampler_long_stall_one_sample () =
  let s = Sampler.create ~lbr_period:100 () in
  Sampler.on_cycle s ~cycle:1_000;
  Alcotest.(check int) "single sample for a long gap" 1
    (List.length (Sampler.lbr_samples s));
  Sampler.on_cycle s ~cycle:1_050;
  Alcotest.(check int) "boundary advanced past the gap" 1
    (List.length (Sampler.lbr_samples s))

let test_sampler_pebs_subsampling () =
  let s = Sampler.create ~pebs_period:4 () in
  for _ = 1 to 16 do
    Sampler.on_llc_miss s ~load_pc:42 ~cycle:0
  done;
  Alcotest.(check int) "every 4th sampled" 4 (Sampler.miss_samples s);
  (match Sampler.delinquent_loads s with
  | [ (pc, n) ] ->
    Alcotest.(check int) "pc" 42 pc;
    Alcotest.(check int) "count" 4 n
  | _ -> Alcotest.fail "expected one delinquent load")

let test_sampler_delinquent_ranking () =
  let s = Sampler.create ~pebs_period:1 () in
  for _ = 1 to 10 do Sampler.on_llc_miss s ~load_pc:1 ~cycle:0 done;
  for _ = 1 to 5 do Sampler.on_llc_miss s ~load_pc:2 ~cycle:0 done;
  for _ = 1 to 20 do Sampler.on_llc_miss s ~load_pc:3 ~cycle:0 done;
  Alcotest.(check (list int)) "descending by count" [ 3; 1; 2 ]
    (List.map fst (Sampler.delinquent_loads s))

let test_sampler_snapshot_captures_ring () =
  let s = Sampler.create ~lbr_period:10 ~lbr_size:4 () in
  Lbr.record (Sampler.lbr s) ~branch_pc:9 ~target_pc:0 ~cycle:5;
  Sampler.on_cycle s ~cycle:10;
  match Sampler.lbr_samples s with
  | [ sample ] ->
    Alcotest.(check int) "one entry" 1 (Array.length sample.Sampler.entries);
    Alcotest.(check int) "pc preserved" 9 sample.Sampler.entries.(0).Lbr.branch_pc
  | _ -> Alcotest.fail "expected exactly one sample"

(* ---------------- Faults ---------------- *)

(* Drive a sampler through the same branch/cycle/miss schedule and
   return its observable profile. *)
let drive sampler =
  for i = 1 to 50 do
    Sampler.on_branch sampler ~branch_pc:(100 + (i mod 7)) ~target_pc:0
      ~cycle:(i * 13);
    Sampler.on_cycle sampler ~cycle:(i * 13);
    if i mod 3 = 0 then Sampler.on_llc_miss sampler ~load_pc:42 ~cycle:(i * 13)
  done;
  ( List.map
      (fun (s : Sampler.lbr_sample) ->
        (s.Sampler.at_cycle, Array.to_list s.Sampler.entries))
      (Sampler.lbr_samples sampler),
    Sampler.delinquent_loads sampler,
    Sampler.miss_samples sampler )

let test_faults_zero_rate_identical () =
  (* A sampler with an all-zero fault config must be bit-identical to
     one with no fault model at all. *)
  let clean = Sampler.create ~lbr_period:50 ~pebs_period:2 () in
  let faulted =
    Sampler.create ~lbr_period:50 ~pebs_period:2
      ~faults:(Faults.create Faults.none) ()
  in
  Alcotest.(check bool) "identical outcomes" true (drive clean = drive faulted)

let test_faults_deterministic_schedule () =
  (* Same config => same fault schedule => identical degraded profiles. *)
  let mk () =
    Sampler.create ~lbr_period:50 ~pebs_period:2
      ~faults:(Faults.create { Faults.default_faulty with Faults.seed = 7 })
      ()
  in
  Alcotest.(check bool) "same seed, same profile" true (drive (mk ()) = drive (mk ()));
  let other =
    Sampler.create ~lbr_period:50 ~pebs_period:2
      ~faults:(Faults.create { Faults.default_faulty with Faults.seed = 8 })
      ()
  in
  Alcotest.(check bool) "different seed, different profile" true
    (drive (mk ()) <> drive other)

let test_faults_drop_all_lbr () =
  let f = Faults.create { Faults.none with Faults.lbr_drop_rate = 1.0 } in
  let s = Sampler.create ~lbr_period:10 ~faults:f () in
  for i = 1 to 20 do
    Sampler.on_cycle s ~cycle:(i * 10)
  done;
  Alcotest.(check int) "all snapshots lost" 0 (List.length (Sampler.lbr_samples s));
  Alcotest.(check bool) "drops counted" true
    ((Faults.stats f).Faults.lbr_dropped > 0)

let test_faults_jitter_bounded () =
  let f = Faults.create { Faults.none with Faults.cycle_jitter = 5 } in
  for c = 100 to 200 do
    let j = Faults.jitter_cycle f c in
    Alcotest.(check bool) "within +/-5" true (abs (j - c) <= 5)
  done;
  Alcotest.(check bool) "some stamps moved" true
    ((Faults.stats f).Faults.stamps_jittered > 0)

let test_faults_truncate_keeps_suffix () =
  let f = Faults.create { Faults.none with Faults.lbr_truncate_rate = 1.0 } in
  let arr = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let seen_shorter = ref false in
  for _ = 1 to 20 do
    let t = Faults.truncate_ring f arr in
    let n = Array.length t in
    Alcotest.(check bool) "non-empty strict suffix" true (n >= 1 && n < 8);
    Alcotest.(check bool) "newest entries kept" true
      (t = Array.sub arr (8 - n) n);
    if n < 8 then seen_shorter := true
  done;
  Alcotest.(check bool) "truncation happened" true !seen_shorter

let test_faults_skid_displaces_pc () =
  let f =
    Faults.create
      { Faults.none with Faults.pebs_skid_rate = 1.0; pebs_skid_max = 3 }
  in
  for _ = 1 to 50 do
    let pc = Faults.skid_pc f 1000 in
    Alcotest.(check bool) "non-zero bounded skid" true
      (pc <> 1000 && abs (pc - 1000) <= 3)
  done

let test_faults_throttle_budget () =
  (* Budget of 3 samples per 1000-cycle window: a sampler due every 10
     cycles admits at most 3 snapshots per window. *)
  let cfg =
    {
      Faults.none with
      Faults.throttle_budget = 3;
      throttle_window = 1000;
      throttle_backoff = 1.0;
    }
  in
  let f = Faults.create cfg in
  let s = Sampler.create ~lbr_period:10 ~faults:f () in
  for i = 1 to 99 do
    Sampler.on_cycle s ~cycle:(i * 10)
  done;
  Alcotest.(check bool) "under budget in window 1" true
    (List.length (Sampler.lbr_samples s) <= 3);
  (* Second window admits a fresh budget. *)
  for i = 100 to 199 do
    Sampler.on_cycle s ~cycle:(i * 10)
  done;
  let n = List.length (Sampler.lbr_samples s) in
  Alcotest.(check bool) "fresh budget per window" true (n > 3 && n <= 6);
  Alcotest.(check bool) "throttle events recorded" true
    ((Faults.stats f).Faults.throttled > 0)

let test_faults_throttle_backs_off_period () =
  let cfg =
    {
      Faults.none with
      Faults.throttle_budget = 2;
      throttle_window = 10_000;
      throttle_backoff = 2.0;
    }
  in
  let f = Faults.create cfg in
  let s = Sampler.create ~lbr_period:10 ~faults:f () in
  Alcotest.(check int) "initial period" 10 (Sampler.current_lbr_period s);
  for i = 1 to 10 do
    Sampler.on_cycle s ~cycle:(i * 10)
  done;
  Alcotest.(check bool) "period stretched after throttling" true
    (Sampler.current_lbr_period s >= 20);
  Alcotest.(check bool) "backoff factor grew" true
    ((Faults.stats f).Faults.backoff_factor >= 2.)

let test_faults_backoff_capped_at_extreme_rate () =
  (* A pathological schedule: one admitted sample per 10-cycle window,
     aggressive 16x backoff, hammered for 100 windows. Uncapped, the
     factor would reach 16^100; the model must clamp at
     [Faults.max_backoff] so the effective period stays representable. *)
  let cfg =
    {
      Faults.none with
      Faults.throttle_budget = 1;
      throttle_window = 10;
      throttle_backoff = 16.0;
    }
  in
  let f = Faults.create cfg in
  let admitted = ref 0 in
  for cycle = 0 to 999 do
    if Faults.throttle_admit f ~cycle then incr admitted
  done;
  Alcotest.(check int) "one admit per window" 100 !admitted;
  Alcotest.(check int) "rest throttled" 900 (Faults.stats f).Faults.throttled;
  let bf = Faults.backoff_factor f in
  Alcotest.(check bool) "factor finite" true (Float.is_finite bf);
  Alcotest.(check (float 1e-9)) "factor capped" Faults.max_backoff bf;
  (* The capped factor still yields a sane stretched sampler period. *)
  let s = Sampler.create ~lbr_period:10 ~faults:f () in
  let p = Sampler.current_lbr_period s in
  Alcotest.(check int) "period = base * cap" (10 * 4096) p

let () =
  Alcotest.run "pmu"
    [
      ( "lbr",
        [
          Alcotest.test_case "empty" `Quick test_lbr_empty;
          Alcotest.test_case "partial fill" `Quick test_lbr_partial_fill;
          Alcotest.test_case "wraparound" `Quick test_lbr_wraparound;
          Alcotest.test_case "cycles monotone" `Quick test_lbr_cycles_monotone;
          Alcotest.test_case "clear" `Quick test_lbr_clear;
          QCheck_alcotest.to_alcotest prop_lbr_keeps_most_recent;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "lbr period" `Quick test_sampler_lbr_period;
          Alcotest.test_case "long stall" `Quick test_sampler_long_stall_one_sample;
          Alcotest.test_case "next due" `Quick test_sampler_next_due;
          Alcotest.test_case "pebs subsampling" `Quick test_sampler_pebs_subsampling;
          Alcotest.test_case "delinquent ranking" `Quick test_sampler_delinquent_ranking;
          Alcotest.test_case "snapshot contents" `Quick test_sampler_snapshot_captures_ring;
        ] );
      ( "faults",
        [
          Alcotest.test_case "zero rate identical" `Quick test_faults_zero_rate_identical;
          Alcotest.test_case "deterministic schedule" `Quick test_faults_deterministic_schedule;
          Alcotest.test_case "drop all lbr" `Quick test_faults_drop_all_lbr;
          Alcotest.test_case "jitter bounded" `Quick test_faults_jitter_bounded;
          Alcotest.test_case "truncate keeps suffix" `Quick test_faults_truncate_keeps_suffix;
          Alcotest.test_case "skid displaces pc" `Quick test_faults_skid_displaces_pc;
          Alcotest.test_case "throttle budget" `Quick test_faults_throttle_budget;
          Alcotest.test_case "throttle backoff" `Quick test_faults_throttle_backs_off_period;
          Alcotest.test_case "backoff capped at extreme rate" `Quick
            test_faults_backoff_capped_at_extreme_rate;
        ] );
    ]
