module Lbr = Aptget_pmu.Lbr
module Sampler = Aptget_pmu.Sampler
module Faults = Aptget_pmu.Faults

(* ---------------- Lbr ---------------- *)

(* The ring's entries, oldest first, read in place. *)
let ring l =
  List.init (Lbr.length l) (fun i ->
      (Lbr.branch_pc l i, Lbr.target_pc l i, Lbr.cycle l i))

let ring_pcs l = List.map (fun (pc, _, _) -> pc) (ring l)

let test_lbr_empty () =
  let l = Lbr.create () in
  Alcotest.(check int) "default size" 32 (Lbr.size l);
  Alcotest.(check int) "empty" 0 (Lbr.length l)

let test_lbr_partial_fill () =
  let l = Lbr.create ~size:4 () in
  Lbr.record l ~branch_pc:1 ~target_pc:10 ~cycle:100;
  Lbr.record l ~branch_pc:2 ~target_pc:20 ~cycle:200;
  Alcotest.(check int) "two entries" 2 (Lbr.length l);
  Alcotest.(check (list (triple int int int)))
    "oldest first, newest last"
    [ (1, 10, 100); (2, 20, 200) ]
    (ring l);
  Alcotest.check_raises "past the fill"
    (Invalid_argument "Lbr: entry index out of range") (fun () ->
      ignore (Lbr.branch_pc l 2))

let test_lbr_wraparound () =
  let l = Lbr.create ~size:3 () in
  for i = 1 to 5 do
    Lbr.record l ~branch_pc:i ~target_pc:0 ~cycle:(i * 10)
  done;
  Alcotest.(check int) "capped at size" 3 (Lbr.length l);
  Alcotest.(check (list int)) "last three, chronological" [ 3; 4; 5 ]
    (ring_pcs l)

let test_lbr_cycles_monotone () =
  let l = Lbr.create ~size:8 () in
  for i = 1 to 20 do
    Lbr.record l ~branch_pc:i ~target_pc:0 ~cycle:(i * 7)
  done;
  for i = 0 to Lbr.length l - 2 do
    Alcotest.(check bool) "monotone cycles" true
      (Lbr.cycle l i < Lbr.cycle l (i + 1))
  done

let test_lbr_clear () =
  let l = Lbr.create ~size:4 () in
  Lbr.record l ~branch_pc:1 ~target_pc:0 ~cycle:0;
  Lbr.clear l;
  Alcotest.(check int) "cleared" 0 (Lbr.length l)

let prop_lbr_keeps_most_recent =
  QCheck.Test.make ~name:"snapshot is the most recent suffix" ~count:100
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(0 -- 100) small_nat))
    (fun (size, pcs) ->
      let l = Lbr.create ~size () in
      List.iteri (fun i pc -> Lbr.record l ~branch_pc:pc ~target_pc:0 ~cycle:i) pcs;
      let expected =
        let n = List.length pcs in
        let keep = min size n in
        List.filteri (fun i _ -> i >= n - keep) pcs
      in
      ring_pcs l = expected)

(* ---------------- Sampler ---------------- *)

(* The log's snapshots as data: (at_cycle, entries oldest first). *)
let snapshots s =
  Sampler.fold_snapshots s ~init:[] (fun acc snap ->
      ( Sampler.at_cycle s snap,
        List.init (Sampler.entry_count s snap) (fun i ->
            ( Sampler.branch_pc s snap i,
              Sampler.target_pc s snap i,
              Sampler.cycle s snap i )) )
      :: acc)
  |> List.rev

let count = Sampler.snapshot_count

let test_sampler_lbr_period () =
  let s = Sampler.create ~lbr_period:100 () in
  Sampler.on_cycle s ~cycle:50;
  Alcotest.(check int) "before period: none" 0 (count s);
  Sampler.on_cycle s ~cycle:100;
  Alcotest.(check int) "at period: one" 1 (count s);
  Sampler.on_cycle s ~cycle:150;
  Alcotest.(check int) "no resample within period" 1
    (count s);
  Sampler.on_cycle s ~cycle:205;
  Alcotest.(check int) "next period" 2 (count s)

(* The compiled engine's event horizon reads [next_due]: it must be
   the first cycle at which [on_cycle] samples, move past each sample,
   and restart from the epoch on [reset]. *)
let test_sampler_next_due () =
  let s = Sampler.create ~lbr_period:100 () in
  Alcotest.(check int) "first due" 100 (Sampler.next_due s);
  Sampler.on_cycle s ~cycle:99;
  Alcotest.(check int) "nothing before due" 0 (count s);
  Sampler.on_cycle s ~cycle:100;
  Alcotest.(check int) "sampled at due" 1 (count s);
  Alcotest.(check int) "moves one period on" 200 (Sampler.next_due s);
  Sampler.on_cycle s ~cycle:437;
  Alcotest.(check int) "moves past a long stall" 500 (Sampler.next_due s);
  Sampler.reset ~epoch_cycle:40 s;
  Alcotest.(check int) "reset restarts at the epoch" 140 (Sampler.next_due s)

let test_sampler_long_stall_one_sample () =
  let s = Sampler.create ~lbr_period:100 () in
  Sampler.on_cycle s ~cycle:1_000;
  Alcotest.(check int) "single sample for a long gap" 1
    (count s);
  Sampler.on_cycle s ~cycle:1_050;
  Alcotest.(check int) "boundary advanced past the gap" 1
    (count s)

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
  Alcotest.(check (list (pair int (list (triple int int int)))))
    "one snapshot of one entry" [ (10, [ (9, 0, 5) ]) ] (snapshots s);
  (* The log copied the ring: later branches do not reach it. *)
  Lbr.record (Sampler.lbr s) ~branch_pc:7 ~target_pc:0 ~cycle:12;
  Alcotest.(check (list (pair int (list (triple int int int)))))
    "unchanged by later branches" [ (10, [ (9, 0, 5) ]) ] (snapshots s)

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
  ( snapshots sampler,
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
  Alcotest.(check int) "all snapshots lost" 0 (count s);
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
  for _ = 1 to 20 do
    let n = Faults.truncate_ring f 8 in
    Alcotest.(check bool) "non-empty strict suffix" true (n >= 1 && n < 8)
  done;
  Alcotest.(check int) "one entry is never cut" 1 (Faults.truncate_ring f 1);
  Alcotest.(check int) "every draw counted" 20
    (Faults.stats f).Faults.lbr_truncated;
  (* The sampler keeps the newest entries a truncation leaves. *)
  let s = Sampler.create ~lbr_period:100 ~lbr_size:8 ~faults:f () in
  for i = 1 to 8 do
    Sampler.on_branch s ~branch_pc:i ~target_pc:(i + 1) ~cycle:(i * 10)
  done;
  Sampler.on_cycle s ~cycle:100;
  match snapshots s with
  | [ (100, entries) ] ->
    let n = List.length entries in
    Alcotest.(check bool) "truncated" true (n >= 1 && n < 8);
    Alcotest.(check (list (triple int int int)))
      "newest entries kept"
      (List.filteri (fun i _ -> i >= 8 - n)
         (List.init 8 (fun i -> (i + 1, i + 2, (i + 1) * 10))))
      entries
  | _ -> Alcotest.fail "expected one snapshot"

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
    (count s <= 3);
  (* Second window admits a fresh budget. *)
  for i = 100 to 199 do
    Sampler.on_cycle s ~cycle:(i * 10)
  done;
  let n = count s in
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

(* ---------------- Snapshot log against a reference ---------------- *)

(* The sampler as it was before its snapshot log: a list of snapshot
   records, each an array of entry records copied from the ring, with
   truncation cutting the array to its newest entries. It draws from
   the fault model at the same points, in the same order. *)
module Ref_sampler = struct
  type entry = { branch_pc : int; target_pc : int; cycle : int }
  type sample = { at_cycle : int; entries : entry array }

  type t = {
    size : int;
    mutable ring : entry list; (* newest first, at most [size] *)
    period : int;
    mutable next : int;
    mutable samples : sample list; (* reversed *)
    faults : Faults.t option;
  }

  let create ~period ~size faults =
    { size; ring = []; period; next = period; samples = []; faults }

  let current_period t =
    match t.faults with
    | None -> t.period
    | Some f ->
      max t.period
        (int_of_float (float_of_int t.period *. Faults.backoff_factor f))

  let on_branch t ~branch_pc ~target_pc ~cycle =
    let cycle =
      match t.faults with Some f -> Faults.jitter_cycle f cycle | None -> cycle
    in
    t.ring <-
      List.filteri (fun i _ -> i < t.size) ({ branch_pc; target_pc; cycle } :: t.ring)

  let on_cycle t ~cycle =
    if cycle >= t.next then begin
      let snapshot () = Array.of_list (List.rev t.ring) in
      (match t.faults with
      | None -> t.samples <- { at_cycle = cycle; entries = snapshot () } :: t.samples
      | Some f ->
        if Faults.throttle_admit f ~cycle && not (Faults.drop_lbr f) then begin
          let arr = snapshot () in
          let n = Array.length arr in
          let keep = Faults.truncate_ring f n in
          t.samples <-
            { at_cycle = cycle; entries = Array.sub arr (n - keep) keep } :: t.samples
        end);
      let period = current_period t in
      while t.next <= cycle do
        t.next <- t.next + period
      done
    end

  let snapshots t =
    List.rev_map
      (fun s ->
        ( s.at_cycle,
          Array.to_list
            (Array.map (fun e -> (e.branch_pc, e.target_pc, e.cycle)) s.entries) ))
      t.samples

  (* [Loop_stats] over the record list, as it read before the log. *)
  let iteration_times t ~latch_pc ~in_loop =
    let acc = ref [] in
    List.iter
      (fun s ->
        let last = ref (-1) and clean = ref true in
        Array.iteri
          (fun i e ->
            if e.branch_pc = latch_pc then begin
              if !last >= 0 && !clean then begin
                let delta = e.cycle - s.entries.(!last).cycle in
                if delta > 0 then acc := float_of_int delta :: !acc
              end;
              last := i;
              clean := true
            end
            else if not (in_loop e.branch_pc) then clean := false)
          s.entries)
      (List.rev t.samples);
    Array.of_list (List.rev !acc)

  let trip_counts t ~inner_latch_pc ~outer_latch_pc =
    let acc = ref [] in
    List.iter
      (fun s ->
        let in_window = ref false and count = ref 0 in
        Array.iter
          (fun e ->
            if e.branch_pc = outer_latch_pc then begin
              if !in_window then acc := float_of_int !count :: !acc;
              in_window := true;
              count := 0
            end
            else if !in_window && e.branch_pc = inner_latch_pc then incr count)
          s.entries)
      (List.rev t.samples);
    Array.of_list (List.rev !acc)

  let occurrences t ~pc =
    List.fold_left
      (fun n s ->
        Array.fold_left (fun n e -> if e.branch_pc = pc then n + 1 else n) n s.entries)
      0 t.samples
end

module Loop_stats = Aptget_profile.Loop_stats

type fault_mix = No_faults | Zero_faults | Default_faulty | Hostile

let fault_config seed = function
  | No_faults -> None
  | Zero_faults -> Some Faults.none
  | Default_faulty -> Some { Faults.default_faulty with Faults.seed }
  | Hostile ->
    (* Throttles often, so the period backs off mid-stream. *)
    Some
      {
        Faults.default_faulty with
        Faults.seed;
        lbr_truncate_rate = 0.5;
        throttle_budget = 2;
        throttle_window = 2_000;
      }

let fault_mix_name = function
  | No_faults -> "no model"
  | Zero_faults -> "Faults.none"
  | Default_faulty -> "default_faulty"
  | Hostile -> "hostile"

(* A random stream: each event advances the clock, retires one taken
   branch from a small PC set (so loops recur) and ticks the sampler. *)
let log_case =
  let open QCheck in
  let gen =
    Gen.(
      quad
        (oneofl [ No_faults; Zero_faults; Default_faulty; Hostile ])
        (pair small_nat bool) (int_range 1 32)
        (list_size (0 -- 600) (pair (int_range 0 9) (int_range 0 60))))
  in
  make gen ~print:(fun (mix, (seed, dense), size, events) ->
      Printf.sprintf "%s seed=%d dense=%b size=%d events=%s" (fault_mix_name mix)
        seed dense size
        (String.concat " "
           (List.map (fun (pc, d) -> Printf.sprintf "%d+%d" pc d) events)))

let prop_log_matches_reference =
  QCheck.Test.make ~name:"snapshot log matches the record-list sampler"
    ~count:300 ~long_factor:20 log_case (fun (mix, (seed, dense), size, events) ->
      (* The dense case is the robust pipeline's 4x denser retry. *)
      let period = if dense then 100 else 400 in
      let cfg = fault_config seed mix in
      let s =
        Sampler.create ~lbr_period:period ~lbr_size:size
          ?faults:(Option.map Faults.create cfg) ()
      in
      let r = Ref_sampler.create ~period ~size (Option.map Faults.create cfg) in
      let cycle = ref 0 in
      List.iter
        (fun (pc, d) ->
          cycle := !cycle + d;
          Sampler.on_branch s ~branch_pc:pc ~target_pc:(pc + 1) ~cycle:!cycle;
          Ref_sampler.on_branch r ~branch_pc:pc ~target_pc:(pc + 1) ~cycle:!cycle;
          Sampler.on_cycle s ~cycle:!cycle;
          Ref_sampler.on_cycle r ~cycle:!cycle)
        events;
      let in_loop pc = pc <= 4 in
      snapshots s = Ref_sampler.snapshots r
      && count s = List.length r.Ref_sampler.samples
      && Loop_stats.iteration_times s ~latch_pc:3 ~in_loop
         = Ref_sampler.iteration_times r ~latch_pc:3 ~in_loop
      && Loop_stats.trip_counts s ~inner_latch_pc:3 ~outer_latch_pc:5
         = Ref_sampler.trip_counts r ~inner_latch_pc:3 ~outer_latch_pc:5
      && Loop_stats.occurrences s ~pc:3 = Ref_sampler.occurrences r ~pc:3)

(* Taking a snapshot allocates nothing on the minor heap: a sampled run
   allocates less than one minor word per snapshot more than the same
   run unsampled. The kernel never misses the LLC, so PEBS takes no
   sample, and the interpreter keeps the run on this domain. *)
let test_snapshots_allocate_nothing () =
  let module Machine = Aptget_machine.Machine in
  let module Memory = Aptget_mem.Memory in
  let b = Builder.create ~name:"loop" ~nparams:0 in
  Builder.for_loop b ~from:(Ir.Imm 0) ~bound:(Ir.Imm 20_000) (fun b _ ->
      Builder.work b (Ir.Imm 3));
  Builder.ret b None;
  let f = Builder.finish b in
  let run sampler =
    let mem = Memory.create ~capacity_words:64 () in
    ignore (Memory.alloc mem ~name:"pad" ~words:8);
    let before = Gc.minor_words () in
    ignore (Machine.execute ~engine:Machine.Interp ?sampler ~mem f);
    Gc.minor_words () -. before
  in
  ignore (run None);
  let unsampled = run None in
  let sampler = Sampler.create ~lbr_period:200 () in
  let sampled = run (Some sampler) in
  let n = count sampler in
  Alcotest.(check bool) "many snapshots" true (n >= 200);
  let excess = sampled -. unsampled in
  if excess >= float_of_int n then
    Alcotest.failf "%.0f minor words more over %d snapshots" excess n

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
          Alcotest.test_case "snapshots allocate nothing" `Quick
            test_snapshots_allocate_nothing;
          QCheck_alcotest.to_alcotest prop_log_matches_reference;
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
