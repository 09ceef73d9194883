module Cache = Aptget_cache.Cache
module Mshr = Aptget_cache.Mshr
module Hwpf = Aptget_cache.Hwpf
module Hierarchy = Aptget_cache.Hierarchy

(* ---------------- Cache ---------------- *)

let small_cache () = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64
(* 1024/2/64 = 8 sets, 2 ways *)

let test_cache_miss_then_hit () =
  let c = small_cache () in
  Alcotest.(check bool) "cold miss" false (Cache.probe c 5);
  ignore (Cache.insert c 5);
  Alcotest.(check bool) "hit" true (Cache.probe c 5);
  Alcotest.(check bool) "touch hit" true (Cache.touch c 5)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* lines 0, 8, 16 map to set 0 (8 sets). *)
  ignore (Cache.insert c 0);
  ignore (Cache.insert c 8);
  ignore (Cache.touch c 0);
  (* 8 is now LRU; inserting 16 must evict it. *)
  Alcotest.(check int) "evicts LRU" 8 (Cache.insert c 16);
  Alcotest.(check bool) "0 survives" true (Cache.probe c 0);
  Alcotest.(check bool) "8 gone" false (Cache.probe c 8)

let test_cache_insert_refreshes () =
  let c = small_cache () in
  ignore (Cache.insert c 0);
  ignore (Cache.insert c 8);
  ignore (Cache.insert c 0);
  (* re-insert refreshes 0 *)
  Alcotest.(check int) "evicts 8" 8 (Cache.insert c 16)

let test_cache_sets_isolated () =
  let c = small_cache () in
  ignore (Cache.insert c 0);
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  Alcotest.(check bool) "different sets coexist" true
    (Cache.probe c 0 && Cache.probe c 1 && Cache.probe c 2)

let test_cache_invalidate_clear () =
  let c = small_cache () in
  ignore (Cache.insert c 3);
  Cache.invalidate c 3;
  Alcotest.(check bool) "invalidated" false (Cache.probe c 3);
  ignore (Cache.insert c 4);
  Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Cache.occupancy c)

(* [no_line] (-1) is also the invalid-way tag: a negative line must
   never match an invalid way. *)
let test_cache_negative_line () =
  let c = small_cache () in
  Cache.invalidate c (-1);
  Alcotest.(check int) "invalidate keeps occupancy" 0 (Cache.occupancy c);
  Alcotest.(check bool) "never present" false (Cache.probe c (-1));
  Alcotest.(check bool) "touch misses" false (Cache.touch c (-1));
  Alcotest.(check bool) "insert rejected" true
    (try
       ignore (Cache.insert c (-1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "still empty" 0 (Cache.occupancy c)

let test_cache_bad_geometry () =
  Alcotest.(check bool) "non-pow2 sets rejected" true
    (try
       ignore (Cache.create ~size_bytes:192 ~assoc:1 ~line_bytes:64);
       false
     with Invalid_argument _ -> true)

let prop_occupancy_bounded =
  QCheck.Test.make ~name:"occupancy never exceeds capacity" ~count:100
    QCheck.(list_of_size Gen.(0 -- 200) (int_bound 500))
    (fun lines ->
      let c = small_cache () in
      List.iter (fun l -> ignore (Cache.insert c l)) lines;
      Cache.occupancy c <= 16)

let prop_inserted_line_present_or_evicted =
  QCheck.Test.make ~name:"last inserted line always present" ~count:100
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 100))
    (fun lines ->
      let c = small_cache () in
      List.iter (fun l -> ignore (Cache.insert c l)) lines;
      Cache.probe c (List.nth lines (List.length lines - 1)))

(* The stamp-LRU cache the recency-ordered one replaced, kept as the
   reference model: every way holds a tag, an LRU stamp and a mark;
   invalid ways have stamp 0 and valid ones at least 1, so the victim
   is one argmin over the set, ties to the lowest way. *)
module Stamp_lru = struct
  type t = {
    sets : int;
    assoc : int;
    tags : int array;
    lru : int array;
    marks : int array;
    mutable clock : int;
    mutable evicted_mark : int;
    mutable valid : int;
  }

  let create ~sets ~assoc =
    {
      sets;
      assoc;
      tags = Array.make (sets * assoc) Cache.no_line;
      lru = Array.make (sets * assoc) 0;
      marks = Array.make (sets * assoc) 0;
      clock = 0;
      evicted_mark = 0;
      valid = 0;
    }

  let slot t line =
    if line < 0 then -1
    else begin
      let base = (line land (t.sets - 1)) * t.assoc in
      let rec go w =
        if w = base + t.assoc then -1 else if t.tags.(w) = line then w else go (w + 1)
      in
      go base
    end

  let probe t line = slot t line >= 0

  let stamp t w =
    t.clock <- t.clock + 1;
    t.lru.(w) <- t.clock

  let touch t line =
    let w = slot t line in
    if w >= 0 then stamp t w;
    w >= 0

  let insert_absent t line =
    if line < 0 then invalid_arg "Stamp_lru.insert";
    let base = (line land (t.sets - 1)) * t.assoc in
    let v = ref base in
    for w = base + 1 to base + t.assoc - 1 do
      if t.lru.(w) < t.lru.(!v) then v := w
    done;
    let evicted = t.tags.(!v) in
    if evicted = Cache.no_line then t.valid <- t.valid + 1;
    t.evicted_mark <- t.marks.(!v);
    t.tags.(!v) <- line;
    t.marks.(!v) <- 0;
    stamp t !v;
    evicted

  let insert t line =
    let w = slot t line in
    if w >= 0 then begin
      stamp t w;
      t.evicted_mark <- 0;
      Cache.no_line
    end
    else insert_absent t line

  let invalidate t line =
    let w = slot t line in
    if w >= 0 then begin
      t.tags.(w) <- Cache.no_line;
      t.lru.(w) <- 0;
      t.marks.(w) <- 0;
      t.valid <- t.valid - 1
    end

  let clear t =
    Array.fill t.tags 0 (Array.length t.tags) Cache.no_line;
    Array.fill t.lru 0 (Array.length t.lru) 0;
    Array.fill t.marks 0 (Array.length t.marks) 0;
    t.clock <- 0;
    t.evicted_mark <- 0;
    t.valid <- 0

  let mark t line =
    let w = slot t line in
    if w >= 0 then t.marks.(w) else 0

  let set_mark t line m =
    let w = slot t line in
    if w >= 0 then t.marks.(w) <- m
end

type cache_op =
  | Insert of int
  | Insert_absent of int
  | Touch of int
  | Probe of int
  | Invalidate of int
  | Clear
  | Get_mark of int
  | Set_mark of int * int

let cache_op_print = function
  | Insert l -> Printf.sprintf "insert %d" l
  | Insert_absent l -> Printf.sprintf "insert_absent %d" l
  | Touch l -> Printf.sprintf "touch %d" l
  | Probe l -> Printf.sprintf "probe %d" l
  | Invalidate l -> Printf.sprintf "invalidate %d" l
  | Clear -> "clear"
  | Get_mark l -> Printf.sprintf "mark %d" l
  | Set_mark (l, m) -> Printf.sprintf "set_mark %d %d" l m

(* Four sets; lines over three times the capacity, so sets fill, evict
   and collide, plus the negative line for the lookups. Clears are
   rare enough that sets get full between them. *)
let diff_sets = 4

let diff_case_gen =
  let open QCheck.Gen in
  oneofl [ 1; 2; 8; 16 ] >>= fun assoc ->
  let line = int_bound ((diff_sets * assoc * 3) - 1) in
  let any_line = frequency [ (15, line); (1, return (-1)) ] in
  let op =
    frequency
      [
        (6, map (fun l -> Insert l) line);
        (6, map (fun l -> Insert_absent l) line);
        (5, map (fun l -> Touch l) any_line);
        (2, map (fun l -> Probe l) any_line);
        (2, map (fun l -> Invalidate l) any_line);
        (1, map (fun l -> Get_mark l) any_line);
        (2, map2 (fun l m -> Set_mark (l, m)) any_line (int_bound 3));
        (1, return Clear);
      ]
  in
  map (fun ops -> (assoc, ops)) (list_size (int_range 1 400) op)

let diff_case =
  QCheck.make
    ~print:(fun (assoc, ops) ->
      Printf.sprintf "assoc=%d [%s]" assoc
        (String.concat "; " (List.map cache_op_print ops)))
    diff_case_gen

(* Drives both caches with the same operations; [insert_absent] only
   ever gets an absent line. Every answer, eviction (and its mark),
   occupancy and, at the end, every line's presence and mark agree. *)
let prop_matches_stamp_lru =
  QCheck.Test.make ~name:"recency order matches stamp LRU" ~count:300
    ~long_factor:20 diff_case (fun (assoc, ops) ->
      let c = Cache.create ~size_bytes:(diff_sets * assoc * 64) ~assoc ~line_bytes:64 in
      let r = Stamp_lru.create ~sets:diff_sets ~assoc in
      let agree what a b =
        if a <> b then
          QCheck.Test.fail_reportf "%s: cache %d, reference %d" what a b
      in
      let evicted what a b =
        agree what a b;
        agree (what ^ " mark") (Cache.evicted_mark c) r.Stamp_lru.evicted_mark
      in
      List.iter
        (fun op ->
          (match op with
          | Insert l -> evicted "insert" (Cache.insert c l) (Stamp_lru.insert r l)
          | Insert_absent l ->
            if not (Stamp_lru.probe r l) then
              evicted "insert_absent" (Cache.insert_absent c l)
                (Stamp_lru.insert_absent r l)
          | Touch l ->
            agree "touch" (Bool.to_int (Cache.touch c l))
              (Bool.to_int (Stamp_lru.touch r l))
          | Probe l ->
            agree "probe" (Bool.to_int (Cache.probe c l))
              (Bool.to_int (Stamp_lru.probe r l))
          | Invalidate l ->
            Cache.invalidate c l;
            Stamp_lru.invalidate r l
          | Clear ->
            Cache.clear c;
            Stamp_lru.clear r
          | Get_mark l -> agree "mark" (Cache.mark c l) (Stamp_lru.mark r l)
          | Set_mark (l, m) ->
            Cache.set_mark c l m;
            Stamp_lru.set_mark r l m);
          agree "occupancy" (Cache.occupancy c) r.Stamp_lru.valid)
        ops;
      for l = -1 to diff_sets * assoc * 3 do
        agree (Printf.sprintf "line %d present" l)
          (Bool.to_int (Cache.probe c l))
          (Bool.to_int (Stamp_lru.probe r l));
        agree (Printf.sprintf "line %d mark" l) (Cache.mark c l) (Stamp_lru.mark r l)
      done;
      true)

(* ---------------- MSHR ---------------- *)

(* Lines of every fill completed by [now], in the order the hierarchy
   installs them. *)
let drain m ~now =
  let rec go acc =
    let i = Mshr.next_ready m ~now in
    if i < 0 then List.rev acc
    else begin
      let line = Mshr.line m i in
      Mshr.remove_at m i;
      go (line :: acc)
    end
  in
  go []

let test_mshr_allocate_find () =
  let m = Mshr.create ~capacity:2 in
  Alcotest.(check bool) "alloc" true
    (Mshr.allocate m ~line:1 ~ready_at:10 ~origin:Mshr.Sw_prefetch);
  let i = Mshr.find m 1 in
  Alcotest.(check bool) "found" true (i >= 0);
  Alcotest.(check int) "ready_at" 10 (Mshr.ready_at m i);
  (* [allocate] does not look the line up: a caller coalesces a
     request for a line [find] reports in flight. *)
  Alcotest.(check int) "not in flight" (-1) (Mshr.find m 2)

let test_mshr_capacity () =
  let m = Mshr.create ~capacity:2 in
  ignore (Mshr.allocate m ~line:1 ~ready_at:1 ~origin:Mshr.Demand);
  ignore (Mshr.allocate m ~line:2 ~ready_at:1 ~origin:Mshr.Demand);
  Alcotest.(check bool) "full" false
    (Mshr.allocate m ~line:3 ~ready_at:1 ~origin:Mshr.Demand);
  Alcotest.(check int) "in flight" 2 (Mshr.in_flight m)

let test_mshr_pop_ready () =
  let m = Mshr.create ~capacity:4 in
  ignore (Mshr.allocate m ~line:1 ~ready_at:30 ~origin:Mshr.Demand);
  ignore (Mshr.allocate m ~line:2 ~ready_at:10 ~origin:Mshr.Demand);
  ignore (Mshr.allocate m ~line:3 ~ready_at:50 ~origin:Mshr.Demand);
  Alcotest.(check (list int)) "completion order" [ 2; 1 ] (drain m ~now:30);
  Alcotest.(check int) "one left" 1 (Mshr.in_flight m)

(* Fills due at the same cycle come out newest-allocated first, after
   any earlier-due fill. *)
let test_mshr_same_cycle_order () =
  let m = Mshr.create ~capacity:4 in
  ignore (Mshr.allocate m ~line:1 ~ready_at:10 ~origin:Mshr.Demand);
  ignore (Mshr.allocate m ~line:2 ~ready_at:10 ~origin:Mshr.Demand);
  ignore (Mshr.allocate m ~line:3 ~ready_at:5 ~origin:Mshr.Demand);
  ignore (Mshr.allocate m ~line:4 ~ready_at:10 ~origin:Mshr.Demand);
  Alcotest.(check (list int)) "ready_at, then newest first" [ 3; 4; 2; 1 ]
    (drain m ~now:10)

let test_mshr_remove () =
  let m = Mshr.create ~capacity:4 in
  ignore (Mshr.allocate m ~line:7 ~ready_at:5 ~origin:Mshr.Demand);
  Mshr.remove_at m (Mshr.find m 7);
  Alcotest.(check int) "removed" (-1) (Mshr.find m 7)

(* ---------------- Hwpf ---------------- *)

let targets h ~pc ~addr ~miss =
  List.init (Hwpf.on_demand_access h ~pc ~addr ~miss) (Hwpf.target h)

let test_hwpf_stride_detection () =
  let h = Hwpf.create ~degree:2 () in
  let pc = 42 in
  ignore (Hwpf.on_demand_access h ~pc ~addr:0 ~miss:false);
  ignore (Hwpf.on_demand_access h ~pc ~addr:16 ~miss:false);
  (* second identical stride -> confident *)
  let t = targets h ~pc ~addr:32 ~miss:false in
  Alcotest.(check bool) "prefetches ahead" true (List.mem 6 t)
  (* addr 48 -> line 6, addr 64 -> line 8 *)

let test_hwpf_next_line_on_miss () =
  let h = Hwpf.create () in
  let t = targets h ~pc:1 ~addr:64 ~miss:true in
  Alcotest.(check bool) "next line" true (List.mem 9 t)

let test_hwpf_irregular_silent () =
  let h = Hwpf.create () in
  let pc = 9 in
  ignore (Hwpf.on_demand_access h ~pc ~addr:100 ~miss:false);
  ignore (Hwpf.on_demand_access h ~pc ~addr:7 ~miss:false);
  let t = targets h ~pc ~addr:5000 ~miss:false in
  Alcotest.(check (list int)) "no stride prefetch" [] t

(* Targets come out ascending and without duplicates, whatever order
   the stride and next-line prefetchers produce them in. *)
let test_hwpf_targets_sorted_distinct () =
  let h = Hwpf.create ~degree:2 () in
  (* Descending one-line stride: stride targets below the access, the
     next line above it. *)
  ignore (targets h ~pc:5 ~addr:100 ~miss:false);
  ignore (targets h ~pc:5 ~addr:92 ~miss:false);
  Alcotest.(check (list int)) "ascending" [ 8; 9; 11 ]
    (targets h ~pc:5 ~addr:84 ~miss:true);
  (* Ascending one-line stride: the next line is the first stride
     target too. *)
  ignore (targets h ~pc:6 ~addr:0 ~miss:false);
  ignore (targets h ~pc:6 ~addr:8 ~miss:false);
  Alcotest.(check (list int)) "de-duplicated" [ 3; 4 ]
    (targets h ~pc:6 ~addr:16 ~miss:true)

let test_hwpf_disabled () =
  let h = Hwpf.disabled () in
  Alcotest.(check (list int)) "silent" []
    (targets h ~pc:1 ~addr:0 ~miss:true)

(* ---------------- Hierarchy ---------------- *)

let hier ?(hw_prefetch = false) ?(mshr = 4) () =
  Hierarchy.create
    { Hierarchy.default_config with Hierarchy.hw_prefetch; mshr_capacity = mshr }

let test_hier_levels () =
  let h = hier () in
  let cfg = Hierarchy.config h in
  let a1 = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0 in
  Alcotest.(check int) "cold = DRAM" cfg.Hierarchy.dram_latency (Hierarchy.latency a1);
  let a2 = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:1000 in
  Alcotest.(check int) "warm = L1" cfg.Hierarchy.l1_latency (Hierarchy.latency a2);
  let c = Hierarchy.counters h in
  Alcotest.(check int) "one l1 hit" 1 c.Hierarchy.hits_l1;
  Alcotest.(check int) "one dram fill" 1 c.Hierarchy.dram_fills_demand

let test_hier_same_line_sharing () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  let a = Hierarchy.demand_load h ~pc:1 ~addr:7 ~cycle:500 in
  Alcotest.(check bool) "same line hits" true (Hierarchy.served_from a = Hierarchy.L1);
  let b = Hierarchy.demand_load h ~pc:1 ~addr:8 ~cycle:1000 in
  Alcotest.(check bool) "next line misses" true (Hierarchy.served_from b = Hierarchy.Dram)

let test_hier_timely_prefetch () =
  let h = hier () in
  let cfg = Hierarchy.config h in
  Hierarchy.sw_prefetch h ~addr:64 ~cycle:0;
  (* after the full DRAM latency the fill has landed: demand load hits *)
  let a =
    Hierarchy.demand_load h ~pc:1 ~addr:64 ~cycle:(cfg.Hierarchy.dram_latency + 1)
  in
  Alcotest.(check int) "timely = L1 hit" cfg.Hierarchy.l1_latency (Hierarchy.latency a);
  Alcotest.(check int) "issued" 1 (Hierarchy.counters h).Hierarchy.sw_prefetch_issued

let test_hier_late_prefetch () =
  let h = hier () in
  let cfg = Hierarchy.config h in
  Hierarchy.sw_prefetch h ~addr:64 ~cycle:0;
  let wait_cycle = 100 in
  let a = Hierarchy.demand_load h ~pc:1 ~addr:64 ~cycle:wait_cycle in
  Alcotest.(check bool) "fill buffer hit" true (Hierarchy.fill_buffer_hit a);
  Alcotest.(check bool) "flagged late" true (Hierarchy.late_sw_prefetch a);
  Alcotest.(check int) "partial stall"
    (cfg.Hierarchy.dram_latency - wait_cycle + cfg.Hierarchy.l1_latency)
    (Hierarchy.latency a);
  Alcotest.(check int) "LOAD_HIT_PRE.SW_PF" 1
    (Hierarchy.counters h).Hierarchy.load_hit_pre_sw_pf

let test_hier_prefetch_drop_when_full () =
  let h = hier ~mshr:2 () in
  Hierarchy.sw_prefetch h ~addr:0 ~cycle:0;
  Hierarchy.sw_prefetch h ~addr:64 ~cycle:0;
  Hierarchy.sw_prefetch h ~addr:128 ~cycle:0;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "two issued" 2 c.Hierarchy.sw_prefetch_issued;
  Alcotest.(check int) "one dropped" 1 c.Hierarchy.sw_prefetch_dropped

let test_hier_useless_prefetch () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  Hierarchy.sw_prefetch h ~addr:0 ~cycle:500;
  Alcotest.(check int) "useless" 1 (Hierarchy.counters h).Hierarchy.sw_prefetch_useless

let test_hier_offcore_counters () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  Hierarchy.sw_prefetch h ~addr:64 ~cycle:0;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "all data rd = 2" 2 c.Hierarchy.offcore_all_data_rd;
  Alcotest.(check int) "demand data rd = 1" 1 c.Hierarchy.offcore_demand_data_rd

let test_hier_reset_keeps_contents () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  Hierarchy.reset_counters h;
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:1000 in
  Alcotest.(check bool) "still cached" true (Hierarchy.served_from a = Hierarchy.L1);
  Alcotest.(check int) "counters zeroed" 1 (Hierarchy.counters h).Hierarchy.demand_loads

let test_hier_flush () =
  let h = hier () in
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0);
  Hierarchy.flush h;
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:1000 in
  Alcotest.(check bool) "cold again" true (Hierarchy.served_from a = Hierarchy.Dram)

let test_hier_hw_prefetch_covers_stream () =
  let h = hier ~hw_prefetch:true () in
  (* Stream through 64 consecutive lines; later lines should
     increasingly be covered by the next-line/stride prefetchers. *)
  let misses = ref 0 in
  for i = 0 to 63 do
    let a = Hierarchy.demand_load h ~pc:7 ~addr:(i * 8) ~cycle:(i * 400) in
    if Hierarchy.served_from a = Hierarchy.Dram && not (Hierarchy.fill_buffer_hit a)
    then incr misses
  done;
  Alcotest.(check bool)
    (Printf.sprintf "misses (%d) well below 64" !misses)
    true (!misses < 32)

let test_hier_bandwidth_gap () =
  let cfg = { Hierarchy.default_config with Hierarchy.dram_min_gap = 100; hw_prefetch = false } in
  let h = Hierarchy.create cfg in
  (* Two back-to-back DRAM misses at the same cycle: the second queues. *)
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0 in
  let b = Hierarchy.demand_load h ~pc:1 ~addr:512 ~cycle:0 in
  Alcotest.(check int) "first at full latency" cfg.Hierarchy.dram_latency
    (Hierarchy.latency a);
  Alcotest.(check int) "second queues behind the channel"
    (cfg.Hierarchy.dram_latency + 100) (Hierarchy.latency b)

let test_hier_bandwidth_gap_zero_is_free () =
  let h = hier () in
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0 in
  let b = Hierarchy.demand_load h ~pc:1 ~addr:512 ~cycle:0 in
  Alcotest.(check int) "no queueing by default" (Hierarchy.latency a) (Hierarchy.latency b)

(* A negative address used to map to line -1, the invalid-way tag, so
   an empty hierarchy reported an L1 hit; and -1..-7 mapped to line 0
   and cached it. Negative addresses are served from DRAM uncached. *)
let test_hier_negative_addr () =
  let h = hier () in
  let cfg = Hierarchy.config h in
  List.iter
    (fun addr ->
      let a = Hierarchy.demand_load h ~pc:1 ~addr ~cycle:0 in
      Alcotest.(check bool)
        (Printf.sprintf "addr %d served from DRAM" addr)
        true
        (Hierarchy.served_from a = Hierarchy.Dram);
      Alcotest.(check int) "full DRAM latency" cfg.Hierarchy.dram_latency
        (Hierarchy.latency a))
    [ -8; -15; -1; -8 ];
  Hierarchy.sw_prefetch h ~addr:(-1) ~cycle:0;
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:1000 in
  Alcotest.(check bool) "line 0 never cached" true
    (Hierarchy.served_from a = Hierarchy.Dram)

(* Two SW-prefetch fills completing at the same cycle install newest
   first: with a direct-mapped L1, the older line is the one left in
   L1 and the newer one is only in L2. *)
let test_hier_same_cycle_fill_order () =
  let h =
    Hierarchy.create
      {
        Hierarchy.default_config with
        Hierarchy.hw_prefetch = false;
        l1_size = 4096;
        l1_assoc = 1;
      }
  in
  (* 64 L1 sets: lines 0 and 64 share set 0. *)
  Hierarchy.sw_prefetch h ~addr:0 ~cycle:0;
  Hierarchy.sw_prefetch h ~addr:(64 * 8) ~cycle:0;
  let older = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:1000 in
  Alcotest.(check bool) "older fill installed last" true
    (Hierarchy.served_from older = Hierarchy.L1);
  let newer = Hierarchy.demand_load h ~pc:1 ~addr:(64 * 8) ~cycle:1001 in
  Alcotest.(check bool) "newer fill displaced" true
    (Hierarchy.served_from newer = Hierarchy.L2)

(* A 16-set, 4-way LLC (with smaller private levels), so a handful of
   loads evicts a chosen line. *)
let tiny =
  {
    Hierarchy.default_config with
    Hierarchy.l1_size = 1024;
    l1_assoc = 2;
    l2_size = 2048;
    l2_assoc = 2;
    llc_size = 4096;
    llc_assoc = 4;
    mshr_capacity = 4;
    hw_prefetch = false;
  }

(* Demand misses to four lines of LLC set 0 (lines 16, 32, 48, 64 of
   stream [h]), from [cycle] on: enough to evict any older line of the
   set. *)
let evict_llc_set0 h ~cycle =
  List.iteri
    (fun i k ->
      ignore
        (Hierarchy.demand_load h ~pc:1 ~addr:(k * 16 * 8) ~cycle:(cycle + (1000 * i))))
    [ 1; 2; 3; 4 ]

let early_evicts h = (Hierarchy.counters h).Hierarchy.sw_prefetch_early_evict

let test_hier_early_evict_solo () =
  let h = Hierarchy.create tiny in
  Hierarchy.sw_prefetch h ~addr:0 ~cycle:0;
  evict_llc_set0 h ~cycle:1000;
  Alcotest.(check int) "unused prefetched line evicted" 1 (early_evicts h)

let test_hier_demand_use_clears_mark () =
  let h = Hierarchy.create tiny in
  Hierarchy.sw_prefetch h ~addr:0 ~cycle:0;
  ignore (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:500);
  evict_llc_set0 h ~cycle:1000;
  Alcotest.(check int) "used line's eviction not charged" 0 (early_evicts h);
  Alcotest.(check bool) "it was evicted" true
    (Hierarchy.served_from (Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:9000)
    = Hierarchy.Dram)

(* Under co-run the owner is charged, even when another stream's loads
   do the evicting and the owner's counters were reset in between. *)
let test_hier_early_evict_corun_owner () =
  let shared = Hierarchy.create_shared tiny in
  let a = Hierarchy.attach shared ~stream:0 in
  let b = Hierarchy.attach shared ~stream:1 in
  Hierarchy.sw_prefetch a ~addr:0 ~cycle:0;
  (* a's next access installs the fill; line 1 sits in LLC set 1 *)
  ignore (Hierarchy.demand_load a ~pc:1 ~addr:8 ~cycle:1000);
  Hierarchy.reset_counters a;
  ignore (Hierarchy.demand_load b ~pc:1 ~addr:0 ~cycle:2000);
  evict_llc_set0 b ~cycle:3000;
  Alcotest.(check int) "owner charged" 1 (early_evicts a);
  Alcotest.(check int) "evicting stream not charged" 0 (early_evicts b)

(* The mark travels with its line inside the LLC: [owner] SW-prefetches
   line 0 into LLC set 0 behind three older lines of [other]'s; an LLC
   hit on one of them and four new lines then move it down the set.
   Only its own eviction, the third, is charged, once, to [owner]. *)
let mark_follows_line ~owner ~other =
  let load h line ~cycle = ignore (Hierarchy.demand_load h ~pc:1 ~addr:(line * 8) ~cycle) in
  List.iteri (fun i line -> load other line ~cycle:(i * 1000)) [ 16; 32; 48 ];
  Hierarchy.sw_prefetch owner ~addr:0 ~cycle:3000;
  (* installs the fill; line 1 is in LLC set 1 *)
  load owner 1 ~cycle:4000;
  (* 16 is in [other]'s LLC only: an LLC hit moves it above line 0 *)
  load other 16 ~cycle:5000;
  List.mapi
    (fun i line ->
      load other line ~cycle:(6000 + (1000 * i));
      early_evicts owner)
    [ 64; 80; 96; 112 ]

let test_hier_mark_follows_line () =
  let h = Hierarchy.create tiny in
  Alcotest.(check (list int)) "solo: charged at the marked line's eviction"
    [ 0; 0; 1; 1 ] (mark_follows_line ~owner:h ~other:h);
  let shared = Hierarchy.create_shared tiny in
  let a = Hierarchy.attach shared ~stream:0 in
  let b = Hierarchy.attach shared ~stream:1 in
  Alcotest.(check (list int)) "co-run: charged at the marked line's eviction"
    [ 0; 0; 1; 1 ] (mark_follows_line ~owner:a ~other:b);
  Alcotest.(check int) "not to the evicting stream" 0 (early_evicts b)

(* ROADMAP item 3c's reproduction, pinned as the model stands: a
   prefetch the MSHR refuses has claimed a DRAM channel slot first, so
   each one delays the next DRAM fill by [dram_min_gap]. The model fix
   (claim the slot only once the MSHR accepts the fill) changes every
   number below to the k = 0 latency, 297. *)
let slot_cfg ~hw_prefetch =
  {
    Hierarchy.default_config with
    Hierarchy.dram_min_gap = 24;
    mshr_capacity = 2;
    hw_prefetch;
  }

(* A demand load of an uncached line at cycle 1 waits for the channel
   slot after every DRAM claim made at cycle 0. *)
let uncached_latency h =
  Hierarchy.latency (Hierarchy.demand_load h ~pc:9 ~addr:(1000 * 8) ~cycle:1)

let test_hier_dropped_prefetch_claims_slot () =
  List.iter
    (fun (k, expected) ->
      let h = Hierarchy.create (slot_cfg ~hw_prefetch:false) in
      (* two fills in flight fill the MSHR; k more are dropped *)
      for i = 0 to 1 + k do
        Hierarchy.sw_prefetch h ~addr:(i * 64) ~cycle:0
      done;
      Alcotest.(check int)
        (Printf.sprintf "k=%d dropped" k)
        k (Hierarchy.counters h).Hierarchy.sw_prefetch_dropped;
      Alcotest.(check int)
        (Printf.sprintf "demand latency after %d dropped" k)
        expected (uncached_latency h))
    [ (0, 297); (1, 321); (3, 369) ]

(* The same claim for a HW-prefetch target already in flight: a SW
   prefetch of line 1 (slot 0), then a demand miss on line 0 (slot 24)
   whose next-line target is line 1. The refused target takes slot 48,
   as one dropped SW prefetch does above. *)
let test_hier_in_flight_hw_target_claims_slot () =
  let h = Hierarchy.create (slot_cfg ~hw_prefetch:true) in
  Hierarchy.sw_prefetch h ~addr:8 ~cycle:0;
  let a = Hierarchy.demand_load h ~pc:1 ~addr:0 ~cycle:0 in
  Alcotest.(check int) "demand miss queues behind the prefetch" (24 + 250)
    (Hierarchy.latency a);
  Alcotest.(check int) "target refused" 0
    (Hierarchy.counters h).Hierarchy.hw_prefetch_issued;
  Alcotest.(check int) "yet it claimed a slot" 321 (uncached_latency h)

(* ROADMAP's zero-allocation target as an exact check: after warm-up,
   demand loads served at each level and software prefetches allocate
   no minor-heap words at all. *)
let minor_words_over ~calls f =
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  Gc.minor_words () -. w0

let calls = 10_000

let test_hier_allocation_free () =
  let rng = Aptget_util.Rng.create 7 in
  let replay addrs =
    let mask = Array.length addrs - 1 and k = ref 0 in
    fun () ->
      incr k;
      addrs.(!k land mask)
  in
  let check_level name ~lines ~span served_by =
    let h = Hierarchy.create Hierarchy.default_config in
    let next =
      replay
        (if lines = span then
           (* a fixed shuffle: in order, the prefetchers would serve it *)
           Array.map (fun l -> l * 8) (Aptget_util.Rng.permutation rng lines)
         else Array.init lines (fun _ -> Aptget_util.Rng.int rng span * 8))
    in
    let cycle = ref 0 in
    let op () =
      cycle := !cycle + 512;
      ignore (Hierarchy.demand_load h ~pc:0 ~addr:(next ()) ~cycle:!cycle)
    in
    for _ = 1 to lines do
      op ()
    done;
    Hierarchy.reset_counters h;
    let words = minor_words_over ~calls op in
    let c = Hierarchy.counters h in
    Alcotest.(check bool)
      (Printf.sprintf "%s serves most loads" name)
      true
      (served_by c * 4 >= 3 * calls);
    Alcotest.(check (float 0.)) (name ^ ": zero minor words") 0. words
  in
  check_level "L1" ~lines:64 ~span:64 (fun c -> c.Hierarchy.hits_l1);
  check_level "L2" ~lines:2048 ~span:2048 (fun c -> c.Hierarchy.hits_l2);
  check_level "LLC" ~lines:16_384 ~span:16_384 (fun c -> c.Hierarchy.hits_llc);
  check_level "DRAM" ~lines:(1 lsl 16) ~span:(1 lsl 22) (fun c ->
      c.Hierarchy.dram_fills_demand);
  let h = Hierarchy.create Hierarchy.default_config in
  let next = replay (Array.init (1 lsl 16) (fun _ -> Aptget_util.Rng.int rng (1 lsl 22) * 8)) in
  let cycle = ref 0 in
  let op () =
    cycle := !cycle + 512;
    Hierarchy.sw_prefetch h ~addr:(next ()) ~cycle:!cycle
  in
  for _ = 1 to calls do
    op ()
  done;
  Alcotest.(check (float 0.)) "sw_prefetch: zero minor words" 0.
    (minor_words_over ~calls op);
  Alcotest.(check bool) "prefetches were issued" true
    ((Hierarchy.counters h).Hierarchy.sw_prefetch_issued > calls)

let prop_inclusive =
  QCheck.Test.make ~name:"demand loads keep returning consistent levels" ~count:20
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 2000))
    (fun addrs ->
      let h = hier () in
      List.iteri
        (fun i a -> ignore (Hierarchy.demand_load h ~pc:1 ~addr:a ~cycle:(i * 300)))
        addrs;
      (* re-touching the most recent address is always an L1 hit *)
      match List.rev addrs with
      | last :: _ ->
        Hierarchy.served_from (Hierarchy.demand_load h ~pc:1 ~addr:last ~cycle:1_000_000)
        = Hierarchy.L1
      | [] -> true)

(* The hierarchy as it was before its co-run trims, rebuilt from the
   public [Cache], [Mshr] and [Hwpf] APIs: an LLC victim is invalidated
   in every stream's private levels, every fill installs with
   [Cache.insert] at all three levels, and a HW-prefetch target probes
   L1 and L2 before anything else. [prop_matches_reference] checks the
   trimmed hierarchy against it. *)
module Ref_hier = struct
  type stream = {
    base : int;
    tag : int;
    l1 : Cache.t;
    l2 : Cache.t;
    mshr : Mshr.t;
    hwpf : Hwpf.t;
    mutable c : Hierarchy.counters;
  }

  type t = {
    cfg : Hierarchy.config;
    llc : Cache.t;
    mutable next_slot : int;
    mutable streams : stream array;
  }

  let zero () =
    {
      Hierarchy.demand_loads = 0;
      hits_l1 = 0;
      hits_l2 = 0;
      hits_llc = 0;
      dram_fills_demand = 0;
      load_hit_pre_sw_pf = 0;
      offcore_all_data_rd = 0;
      offcore_demand_data_rd = 0;
      sw_prefetch_issued = 0;
      sw_prefetch_useless = 0;
      sw_prefetch_dropped = 0;
      hw_prefetch_issued = 0;
      stall_cycles_l2 = 0;
      stall_cycles_llc = 0;
      stall_cycles_dram = 0;
      sw_prefetch_early_evict = 0;
    }

  let cache cfg size assoc =
    Cache.create ~size_bytes:size ~assoc ~line_bytes:cfg.Hierarchy.line_bytes

  let create cfg =
    {
      cfg;
      llc = cache cfg cfg.Hierarchy.llc_size cfg.Hierarchy.llc_assoc;
      next_slot = 0;
      streams = [||];
    }

  let attach t ~stream =
    let cfg = t.cfg in
    let s =
      {
        base = stream lsl 44;
        tag = Array.length t.streams + 1;
        l1 = cache cfg cfg.Hierarchy.l1_size cfg.Hierarchy.l1_assoc;
        l2 = cache cfg cfg.Hierarchy.l2_size cfg.Hierarchy.l2_assoc;
        mshr = Mshr.create ~capacity:cfg.Hierarchy.mshr_capacity;
        hwpf = (if cfg.Hierarchy.hw_prefetch then Hwpf.create () else Hwpf.disabled ());
        c = zero ();
      }
    in
    t.streams <- Array.append t.streams [| s |];
    s

  let evicted t victim =
    if victim <> Cache.no_line then begin
      Array.iter
        (fun s ->
          Cache.invalidate s.l2 victim;
          Cache.invalidate s.l1 victim)
        t.streams;
      let owner = Cache.evicted_mark t.llc in
      if owner > 0 then begin
        let c = t.streams.(owner - 1).c in
        c.sw_prefetch_early_evict <- c.sw_prefetch_early_evict + 1
      end
    end

  let install t s line =
    evicted t (Cache.insert t.llc line);
    ignore (Cache.insert s.l2 line);
    ignore (Cache.insert s.l1 line)

  let clear_mark t line = if Cache.mark t.llc line <> 0 then Cache.set_mark t.llc line 0

  let rec drain t s ~cycle =
    let i = Mshr.next_ready s.mshr ~now:cycle in
    if i >= 0 then begin
      let line = Mshr.line s.mshr i in
      let sw = Mshr.origin s.mshr i = Mshr.Sw_prefetch in
      Mshr.remove_at s.mshr i;
      install t s line;
      if sw then Cache.set_mark t.llc line s.tag;
      drain t s ~cycle
    end

  let dram_start t ~cycle =
    if t.cfg.Hierarchy.dram_min_gap <= 0 then cycle
    else begin
      let start = max cycle t.next_slot in
      t.next_slot <- start + t.cfg.Hierarchy.dram_min_gap;
      start
    end

  let fill t s ~line ~cycle ~origin =
    let from_dram = not (Cache.probe t.llc line) in
    let ready_at =
      if from_dram then dram_start t ~cycle + t.cfg.Hierarchy.dram_latency
      else cycle + t.cfg.Hierarchy.llc_latency
    in
    let ok = Mshr.find s.mshr line < 0 && Mshr.allocate s.mshr ~line ~ready_at ~origin in
    if ok && from_dram then s.c.offcore_all_data_rd <- s.c.offcore_all_data_rd + 1;
    ok

  let hw t s ~pc ~addr ~miss ~cycle =
    for i = 0 to Hwpf.on_demand_access s.hwpf ~pc ~addr ~miss - 1 do
      let line = s.base + Hwpf.target s.hwpf i in
      if
        (not (Cache.probe s.l1 line || Cache.probe s.l2 line))
        && fill t s ~line ~cycle ~origin:Mshr.Hw_prefetch
      then s.c.hw_prefetch_issued <- s.c.hw_prefetch_issued + 1
    done

  let line_of t s addr = s.base + (addr * 8 / t.cfg.Hierarchy.line_bytes)

  (* Packed as [Hierarchy.access]: latency, late-SW bit 8, fill-buffer
     bit 4, level 0-3. *)
  let demand_load t s ~pc ~addr ~cycle =
    let cfg = t.cfg and c = s.c in
    drain t s ~cycle;
    c.demand_loads <- c.demand_loads + 1;
    let offcore () =
      c.offcore_all_data_rd <- c.offcore_all_data_rd + 1;
      c.offcore_demand_data_rd <- c.offcore_demand_data_rd + 1
    in
    if addr < 0 then begin
      c.dram_fills_demand <- c.dram_fills_demand + 1;
      offcore ();
      c.stall_cycles_dram <-
        c.stall_cycles_dram + cfg.Hierarchy.dram_latency - cfg.Hierarchy.l1_latency;
      (cfg.Hierarchy.dram_latency lsl 4) lor 3
    end
    else begin
      let line = line_of t s addr in
      let m = Mshr.find s.mshr line in
      if m >= 0 then begin
        let wait = max 0 (Mshr.ready_at s.mshr m - cycle) in
        let late = Mshr.origin s.mshr m = Mshr.Sw_prefetch in
        Mshr.remove_at s.mshr m;
        install t s line;
        clear_mark t line;
        if late then c.load_hit_pre_sw_pf <- c.load_hit_pre_sw_pf + 1;
        offcore ();
        c.stall_cycles_dram <- c.stall_cycles_dram + wait;
        hw t s ~pc ~addr ~miss:true ~cycle;
        ((wait + cfg.Hierarchy.l1_latency) lsl 4) lor 3 lor 4 lor if late then 8 else 0
      end
      else if Cache.touch s.l1 line then begin
        clear_mark t line;
        c.hits_l1 <- c.hits_l1 + 1;
        hw t s ~pc ~addr ~miss:false ~cycle;
        cfg.Hierarchy.l1_latency lsl 4
      end
      else if Cache.touch s.l2 line then begin
        clear_mark t line;
        ignore (Cache.insert s.l1 line);
        c.hits_l2 <- c.hits_l2 + 1;
        c.stall_cycles_l2 <-
          c.stall_cycles_l2 + cfg.Hierarchy.l2_latency - cfg.Hierarchy.l1_latency;
        hw t s ~pc ~addr ~miss:true ~cycle;
        (cfg.Hierarchy.l2_latency lsl 4) lor 1
      end
      else if Cache.touch t.llc line then begin
        clear_mark t line;
        ignore (Cache.insert s.l2 line);
        ignore (Cache.insert s.l1 line);
        c.hits_llc <- c.hits_llc + 1;
        c.stall_cycles_llc <-
          c.stall_cycles_llc + cfg.Hierarchy.llc_latency - cfg.Hierarchy.l1_latency;
        hw t s ~pc ~addr ~miss:true ~cycle;
        (cfg.Hierarchy.llc_latency lsl 4) lor 2
      end
      else begin
        install t s line;
        let latency = dram_start t ~cycle - cycle + cfg.Hierarchy.dram_latency in
        c.dram_fills_demand <- c.dram_fills_demand + 1;
        offcore ();
        c.stall_cycles_dram <- c.stall_cycles_dram + latency - cfg.Hierarchy.l1_latency;
        hw t s ~pc ~addr ~miss:true ~cycle;
        (latency lsl 4) lor 3
      end
    end

  let sw_prefetch t s ~addr ~cycle =
    if addr >= 0 then begin
      drain t s ~cycle;
      let line = line_of t s addr in
      let c = s.c in
      if Cache.probe s.l1 line || Cache.probe s.l2 line || Mshr.find s.mshr line >= 0
      then c.sw_prefetch_useless <- c.sw_prefetch_useless + 1
      else if fill t s ~line ~cycle ~origin:Mshr.Sw_prefetch then
        c.sw_prefetch_issued <- c.sw_prefetch_issued + 1
      else c.sw_prefetch_dropped <- c.sw_prefetch_dropped + 1
    end
end

type hier_op =
  | Load of int * int * int  (* stream, pc, word address *)
  | Sweep of int * int * int * int * int  (* stream, pc, start, stride, count *)
  | Prefetch of int * int
  | Tick of int
  | Reset of int

let hier_op_print = function
  | Load (s, pc, a) -> Printf.sprintf "load s%d pc%d %d" s pc a
  | Sweep (s, pc, a, d, n) -> Printf.sprintf "sweep s%d pc%d %d+%d*%d" s pc a d n
  | Prefetch (s, a) -> Printf.sprintf "prefetch s%d %d" s a
  | Tick n -> Printf.sprintf "tick %d" n
  | Reset s -> Printf.sprintf "reset s%d" s

(* Tiny levels (4, 8 and 32 lines) under 48 lines per stream, so every
   level evicts and the streams contend for the LLC. *)
let ref_cfg ~mshr ~gap =
  {
    Hierarchy.default_config with
    Hierarchy.l1_size = 256;
    l1_assoc = 2;
    l2_size = 512;
    l2_assoc = 2;
    llc_size = 2048;
    llc_assoc = 4;
    dram_min_gap = gap;
    mshr_capacity = mshr;
    hw_prefetch = true;
  }

let ref_case =
  let open QCheck.Gen in
  let gen =
    list_size (int_range 1 3) (int_bound 2) >>= fun ids ->
    int_range 2 4 >>= fun mshr ->
    oneofl [ 0; 24 ] >>= fun gap ->
    let n = List.length ids in
    let stream = int_bound (n - 1) and pc = int_range 1 3 in
    let addr = frequency [ (20, int_bound ((48 * 8) - 1)); (1, return (-8)) ] in
    let op =
      frequency
        [
          (8, map3 (fun s p a -> Load (s, p, a)) stream pc addr);
          ( 2,
            map3
              (fun (s, p) (a, d) k -> Sweep (s, p, a, d, k))
              (pair stream pc)
              (pair (int_bound 200) (oneofl [ 1; 8; 16; -8 ]))
              (int_range 3 8) );
          (4, map2 (fun s a -> Prefetch (s, a)) stream addr);
          (4, map (fun k -> Tick k) (int_bound 300));
          (1, map (fun s -> Reset s) stream);
        ]
    in
    map (fun ops -> (ids, mshr, gap, ops)) (list_size (int_range 1 300) op)
  in
  QCheck.make
    ~print:(fun (ids, mshr, gap, ops) ->
      Printf.sprintf "streams=[%s] mshr=%d gap=%d [%s]"
        (String.concat "," (List.map string_of_int ids))
        mshr gap
        (String.concat "; " (List.map hier_op_print ops)))
    gen

let counter_fields (c : Hierarchy.counters) =
  Hierarchy.
    [
      ("demand_loads", c.demand_loads);
      ("hits_l1", c.hits_l1);
      ("hits_l2", c.hits_l2);
      ("hits_llc", c.hits_llc);
      ("dram_fills_demand", c.dram_fills_demand);
      ("load_hit_pre_sw_pf", c.load_hit_pre_sw_pf);
      ("offcore_all_data_rd", c.offcore_all_data_rd);
      ("offcore_demand_data_rd", c.offcore_demand_data_rd);
      ("sw_prefetch_issued", c.sw_prefetch_issued);
      ("sw_prefetch_useless", c.sw_prefetch_useless);
      ("sw_prefetch_dropped", c.sw_prefetch_dropped);
      ("hw_prefetch_issued", c.hw_prefetch_issued);
      ("stall_cycles_l2", c.stall_cycles_l2);
      ("stall_cycles_llc", c.stall_cycles_llc);
      ("stall_cycles_dram", c.stall_cycles_dram);
      ("sw_prefetch_early_evict", c.sw_prefetch_early_evict);
    ]

(* Random interleavings over 1-3 streams (stream ids may repeat):
   every access result, and after every operation every stream's
   counters, including its early-evict charges, match the reference. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"hierarchy matches its untrimmed reference" ~count:200
    ~long_factor:20 ref_case (fun (ids, mshr, gap, ops) ->
      let cfg = ref_cfg ~mshr ~gap in
      let shared = Hierarchy.create_shared cfg and r = Ref_hier.create cfg in
      let hs = Array.of_list (List.map (fun stream -> Hierarchy.attach shared ~stream) ids) in
      let rs = Array.of_list (List.map (fun stream -> Ref_hier.attach r ~stream) ids) in
      let cycle = ref 0 and step = ref 0 in
      let load s ~pc ~addr =
        let a = Hierarchy.demand_load hs.(s) ~pc ~addr ~cycle:!cycle in
        let b = Ref_hier.demand_load r rs.(s) ~pc ~addr ~cycle:!cycle in
        if (a :> int) <> b then
          QCheck.Test.fail_reportf "op %d: s%d load %d at %d: access %#x, reference %#x"
            !step s addr !cycle (a :> int) b
      in
      List.iter
        (fun op ->
          incr step;
          (match op with
          | Load (s, pc, addr) -> load s ~pc ~addr
          | Sweep (s, pc, a, d, k) ->
            for i = 0 to k - 1 do
              load s ~pc ~addr:(a + (i * d));
              incr cycle
            done
          | Prefetch (s, addr) ->
            Hierarchy.sw_prefetch hs.(s) ~addr ~cycle:!cycle;
            Ref_hier.sw_prefetch r rs.(s) ~addr ~cycle:!cycle
          | Tick k -> cycle := !cycle + k
          | Reset s ->
            Hierarchy.reset_counters hs.(s);
            rs.(s).Ref_hier.c <- Ref_hier.zero ());
          Array.iteri
            (fun s h ->
              List.iter2
                (fun (name, a) (_, b) ->
                  if a <> b then
                    QCheck.Test.fail_reportf "op %d: s%d %s %d, reference %d" !step s
                      name a b)
                (counter_fields (Hierarchy.counters h))
                (counter_fields rs.(s).Ref_hier.c))
            hs)
        ops;
      true)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_occupancy_bounded;
      prop_inserted_line_present_or_evicted;
      prop_matches_stamp_lru;
      prop_inclusive;
      prop_matches_reference;
    ]

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "insert refreshes" `Quick test_cache_insert_refreshes;
          Alcotest.test_case "sets isolated" `Quick test_cache_sets_isolated;
          Alcotest.test_case "invalidate/clear" `Quick test_cache_invalidate_clear;
          Alcotest.test_case "bad geometry" `Quick test_cache_bad_geometry;
          Alcotest.test_case "negative line" `Quick test_cache_negative_line;
        ] );
      ( "mshr",
        [
          Alcotest.test_case "allocate/find" `Quick test_mshr_allocate_find;
          Alcotest.test_case "capacity" `Quick test_mshr_capacity;
          Alcotest.test_case "pop ready" `Quick test_mshr_pop_ready;
          Alcotest.test_case "remove" `Quick test_mshr_remove;
          Alcotest.test_case "same-cycle order" `Quick test_mshr_same_cycle_order;
        ] );
      ( "hwpf",
        [
          Alcotest.test_case "stride detection" `Quick test_hwpf_stride_detection;
          Alcotest.test_case "next line" `Quick test_hwpf_next_line_on_miss;
          Alcotest.test_case "irregular silent" `Quick test_hwpf_irregular_silent;
          Alcotest.test_case "disabled" `Quick test_hwpf_disabled;
          Alcotest.test_case "targets sorted, distinct" `Quick
            test_hwpf_targets_sorted_distinct;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hier_levels;
          Alcotest.test_case "line sharing" `Quick test_hier_same_line_sharing;
          Alcotest.test_case "timely prefetch" `Quick test_hier_timely_prefetch;
          Alcotest.test_case "late prefetch" `Quick test_hier_late_prefetch;
          Alcotest.test_case "drop when full" `Quick test_hier_prefetch_drop_when_full;
          Alcotest.test_case "useless prefetch" `Quick test_hier_useless_prefetch;
          Alcotest.test_case "offcore counters" `Quick test_hier_offcore_counters;
          Alcotest.test_case "reset counters" `Quick test_hier_reset_keeps_contents;
          Alcotest.test_case "flush" `Quick test_hier_flush;
          Alcotest.test_case "hw covers streams" `Quick test_hier_hw_prefetch_covers_stream;
          Alcotest.test_case "bandwidth gap" `Quick test_hier_bandwidth_gap;
          Alcotest.test_case "bandwidth default free" `Quick
            test_hier_bandwidth_gap_zero_is_free;
          Alcotest.test_case "negative address" `Quick test_hier_negative_addr;
          Alcotest.test_case "same-cycle fill order" `Quick
            test_hier_same_cycle_fill_order;
          Alcotest.test_case "early evict solo" `Quick test_hier_early_evict_solo;
          Alcotest.test_case "demand use clears mark" `Quick
            test_hier_demand_use_clears_mark;
          Alcotest.test_case "early evict co-run owner" `Quick
            test_hier_early_evict_corun_owner;
          Alcotest.test_case "mark follows its line" `Quick
            test_hier_mark_follows_line;
          Alcotest.test_case "dropped prefetch claims a DRAM slot" `Quick
            test_hier_dropped_prefetch_claims_slot;
          Alcotest.test_case "in-flight HW target claims a DRAM slot" `Quick
            test_hier_in_flight_hw_target_claims_slot;
          Alcotest.test_case "allocation free" `Quick test_hier_allocation_free;
        ] );
      ("properties", qsuite);
    ]
