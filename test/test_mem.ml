module Memory = Aptget_mem.Memory
module Metrics = Aptget_obs.Metrics
module Workload = Aptget_workloads.Workload
module Micro = Aptget_workloads.Micro

let test_alloc_aligned () =
  let m = Memory.create () in
  let a = Memory.alloc m ~name:"a" ~words:3 in
  let b = Memory.alloc m ~name:"b" ~words:5 in
  Alcotest.(check int) "first at 0" 0 a.Memory.base;
  Alcotest.(check int) "line aligned" 0 (b.Memory.base mod Memory.words_per_line);
  Alcotest.(check bool) "disjoint" true (b.Memory.base >= a.Memory.base + a.Memory.words)

let test_zero_initialised () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:16 in
  for i = 0 to 15 do
    Alcotest.(check int) "zero" 0 (Memory.get m (r.Memory.base + i))
  done

let test_get_set () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:4 in
  Memory.set m (r.Memory.base + 2) 99;
  Alcotest.(check int) "roundtrip" 99 (Memory.get m (r.Memory.base + 2))

let test_bounds () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:4 in
  ignore r;
  Alcotest.(check bool) "oob get raises" true
    (try
       ignore (Memory.get m 100_000);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative get raises" true
    (try
       ignore (Memory.get m (-1));
       false
     with Invalid_argument _ -> true)

let test_blit_read_roundtrip () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:8 in
  let data = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  Memory.blit_array m r data;
  Alcotest.(check (array int)) "roundtrip" data (Memory.read_array m r)

let test_blit_too_large () =
  let m = Memory.create () in
  let r = Memory.alloc m ~name:"r" ~words:2 in
  Alcotest.check_raises "too large" (Invalid_argument "Memory.blit_array: too large")
    (fun () -> Memory.blit_array m r [| 1; 2; 3 |])

let test_growth () =
  let m = Memory.create ~capacity_words:16 () in
  let r = Memory.alloc m ~name:"big" ~words:10_000 in
  Memory.set m (r.Memory.base + 9_999) 7;
  Alcotest.(check int) "grown" 7 (Memory.get m (r.Memory.base + 9_999))

let test_regions () =
  let m = Memory.create () in
  let _ = Memory.alloc m ~name:"a" ~words:8 in
  let b = Memory.alloc m ~name:"b" ~words:8 in
  Alcotest.(check (list string)) "order" [ "a"; "b" ]
    (List.map (fun (r : Memory.region) -> r.Memory.name) (Memory.regions m));
  (match Memory.find_region m (b.Memory.base + 3) with
  | Some r -> Alcotest.(check string) "found" "b" r.Memory.name
  | None -> Alcotest.fail "region not found");
  Alcotest.(check bool) "miss" true (Memory.find_region m 1_000_000 = None)

let test_line_of_addr () =
  Alcotest.(check int) "line 0" 0 (Memory.line_of_addr 7);
  Alcotest.(check int) "line 1" 1 (Memory.line_of_addr 8)

(* Region-edge accesses: the last allocated word is the edge of the
   bounds check ([next]), so get/set must work at [base + words - 1]
   and raise one word past it. The unsafe accessors behind the
   explicit check make this the test that matters. *)
let test_region_edges () =
  let m = Memory.create ~capacity_words:64 () in
  let r = Memory.alloc m ~name:"edge" ~words:24 in
  let last = r.Memory.base + r.Memory.words - 1 in
  Memory.set m r.Memory.base 11;
  Memory.set m last 22;
  Alcotest.(check int) "first word" 11 (Memory.get m r.Memory.base);
  Alcotest.(check int) "last word" 22 (Memory.get m last);
  Alcotest.(check bool) "get past end raises" true
    (try
       ignore (Memory.get m (last + 1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "set past end raises" true
    (try
       Memory.set m (last + 1) 1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative set raises" true
    (try
       Memory.set m (-1) 1;
       false
     with Invalid_argument _ -> true);
  (* blit_array: exactly full is fine (and lands on the edge), one
     element more must raise before touching memory. *)
  let full = Array.init r.Memory.words (fun i -> 100 + i) in
  Memory.blit_array m r full;
  Alcotest.(check int) "blit reaches last word"
    (100 + r.Memory.words - 1)
    (Memory.get m last);
  Alcotest.(check (array int)) "blit roundtrip" full (Memory.read_array m r);
  Alcotest.check_raises "blit overflow"
    (Invalid_argument "Memory.blit_array: too large") (fun () ->
      Memory.blit_array m r (Array.make (r.Memory.words + 1) 0));
  Alcotest.(check int) "overflow left memory untouched"
    (100 + r.Memory.words - 1)
    (Memory.get m last);
  (* A grown memory keeps the same edge behaviour. *)
  let big = Memory.alloc m ~name:"grown" ~words:4096 in
  let glast = big.Memory.base + big.Memory.words - 1 in
  Memory.set m glast 33;
  Alcotest.(check int) "grown last word" 33 (Memory.get m glast);
  Alcotest.(check bool) "grown get past end raises" true
    (try
       ignore (Memory.get m (glast + 1));
       false
     with Invalid_argument _ -> true)

(* [alloc] does not zero-fill: words past the allocation frontier are
   zero because nothing writes there and growth copies only what is
   allocated. A region allocated by a growing [alloc], right after a
   region written all over, must still read 0 in every word (and so
   must the alignment gap between them). *)
let test_alloc_after_growth_zero () =
  let m = Memory.create ~capacity_words:16 () in
  let a = Memory.alloc m ~name:"a" ~words:13 in
  Memory.init_region m a (fun i -> -1 - i);
  let b = Memory.alloc m ~name:"b" ~words:1000 in
  Alcotest.(check bool) "grew" true (b.Memory.base + b.Memory.words > 16);
  for addr = a.Memory.base + a.Memory.words to b.Memory.base + b.Memory.words - 1 do
    if Memory.get m addr <> 0 then
      Alcotest.failf "word %d reads %d after growth" addr (Memory.get m addr)
  done;
  Alcotest.(check int) "old data kept" (-13) (Memory.get m (a.Memory.base + 12))

(* [reallocate] zero-fills only the words it does not copy: every word
   at or past [next] must still read zero after a growth and after the
   copy a shared handle makes on its first write. Dead buffers of the
   fresh buffer's size, full of junk, are freed first, so a missing
   fill shows up as recycled junk rather than as zeroes fresh from the
   OS. *)
let test_tail_zero_after_reallocate () =
  let dirty words =
    for _ = 1 to 4 do
      let junk = Memory.create ~capacity_words:words () in
      Memory.init_region junk (Memory.alloc junk ~name:"junk" ~words) (fun i -> i + 1)
    done;
    Gc.full_major ()
  in
  let zero_from m ~from ~upto =
    for addr = from to upto - 1 do
      if Memory.get m addr <> 0 then
        Alcotest.failf "word %d reads %d" addr (Memory.get m addr)
    done
  in
  (* Growth: 32 words, 20 of them written, then grown to 64. *)
  let m = Memory.create ~capacity_words:32 () in
  Memory.init_region m (Memory.alloc m ~name:"a" ~words:20) (fun _ -> -1);
  dirty 64;
  let b = Memory.alloc m ~name:"b" ~words:10 in
  let c = Memory.alloc m ~name:"c" ~words:24 in
  Alcotest.(check (pair int int)) "b and c fill the grown buffer" (24, 64)
    (b.Memory.base, c.Memory.base + c.Memory.words);
  zero_from m ~from:20 ~upto:64;
  Alcotest.(check int) "old data kept" (-1) (Memory.get m 19);
  (* Unshare: the alias's first write copies 20 words into 64. *)
  let m = Memory.create ~capacity_words:64 () in
  Memory.init_region m (Memory.alloc m ~name:"a" ~words:20) (fun _ -> -1);
  let alias = Memory.share m in
  dirty 64;
  Memory.set alias 0 5;
  Alcotest.(check bool) "alias unshared" false (Memory.is_shared alias);
  let rest = Memory.alloc alias ~name:"rest" ~words:40 in
  Alcotest.(check int) "rest fills the copy" 64 (rest.Memory.base + rest.Memory.words);
  zero_from alias ~from:20 ~upto:64;
  Alcotest.(check int) "alias write kept" 5 (Memory.get alias 0);
  Alcotest.(check int) "original untouched" (-1) (Memory.get m 0)

(* Regions are public records, so a caller can forge one that lies
   outside the allocations: every region-wide operation must reject it
   before touching storage. Nothing allocated changes, and the words
   past the frontier stay zero for the next [alloc]. *)
let test_init_region () =
  let m = Memory.create ~capacity_words:64 () in
  let _ = Memory.alloc m ~name:"pad" ~words:3 in
  let r = Memory.alloc m ~name:"r" ~words:5 in
  let order = ref [] in
  Memory.init_region m r (fun i ->
      order := i :: !order;
      10 * i);
  Alcotest.(check (list int)) "ascending calls" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Alcotest.(check (array int)) "values" [| 0; 10; 20; 30; 40 |]
    (Memory.read_array m r);
  let snapshot () = List.init (Memory.size_words m) (Memory.get m) in
  let before = snapshot () in
  List.iter
    (fun (what, bad) ->
      let rejects fn f =
        Alcotest.check_raises (what ^ " " ^ fn)
          (Invalid_argument ("Memory." ^ fn ^ ": region out of bounds")) f
      in
      rejects "init_region" (fun () -> Memory.init_region m bad (fun _ -> 1));
      rejects "blit_array" (fun () -> Memory.blit_array m bad [| 1; 2; 3 |]);
      rejects "read_array" (fun () -> ignore (Memory.read_array m bad)))
    [
      ("outside the allocations", { r with Memory.base = r.Memory.base + 8 });
      ("negative base", { r with Memory.base = -8 });
    ];
  Alcotest.(check (list int)) "allocated words unchanged" before (snapshot ());
  let fresh = Memory.alloc m ~name:"fresh" ~words:32 in
  Alcotest.(check (array int)) "next region still zero" (Array.make 32 0)
    (Memory.read_array m fresh)

(* Reference model: a plain [int array] per handle, holding every
   allocated word. Random sequences of allocations (growing past
   [capacity_words]), writes, reads and [share]s must leave every
   handle agreeing with its own model on every read, and every word
   never written must read 0. A shared handle starts from a copy of
   its origin's model, so a write that showed through another handle
   breaks the agreement; every writer must also leave its handle
   unshared. Each op names a handle [h]. Opcodes: 0 alloc, 1 set,
   2 get, 3 blit_array, 4 init_region, 5 read_array, 6 share. *)
type handle = {
  m : Memory.t;
  model : int array ref;
  regions : Memory.region array ref;
}

let prop_matches_model =
  QCheck.Test.make ~name:"memory agrees with an int array model" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 40)
        (pair small_nat
           (quad (int_range 0 6) small_nat small_nat small_signed_int)))
    (fun ops ->
      let ok = ref true in
      let expect b = if not b then ok := false in
      let alloc h words =
        let r = Memory.alloc h.m ~name:"r" ~words in
        let base = (Array.length !(h.model) + 7) / 8 * 8 in
        expect (r.Memory.base = base && r.Memory.words = max words 1);
        let gap = base + max words 1 - Array.length !(h.model) in
        h.model := Array.append !(h.model) (Array.make gap 0);
        h.regions := Array.append !(h.regions) [| r |]
      in
      let first =
        { m = Memory.create ~capacity_words:16 (); model = ref [||]; regions = ref [||] }
      in
      alloc first 4;
      let handles = ref [| first |] in
      List.iter
        (fun (hi, (op, a, b, c)) ->
          let h = !handles.(hi mod Array.length !handles) in
          let m = h.m and model = h.model in
          let r = !(h.regions).(a mod Array.length !(h.regions)) in
          let base = r.Memory.base and words = r.Memory.words in
          let addr = base + (b mod words) in
          (match op with
          | 0 -> alloc h (a mod 80)
          | 1 ->
            Memory.set m addr c;
            !model.(addr) <- c
          | 2 -> expect (Memory.get m addr = !model.(addr))
          | 3 ->
            let data = Array.init (b mod (words + 1)) (fun i -> c + i) in
            Memory.blit_array m r data;
            Array.blit data 0 !model base (Array.length data)
          | 4 ->
            Memory.init_region m r (fun i -> (c * i) + a);
            for i = 0 to words - 1 do
              !model.(base + i) <- (c * i) + a
            done
          | 5 -> expect (Memory.read_array m r = Array.sub !model base words)
          | _ ->
            let alias = Memory.share m in
            expect (Memory.is_shared m && Memory.is_shared alias);
            handles :=
              Array.append !handles
                [|
                  {
                    m = alias;
                    model = ref (Array.copy !model);
                    regions = ref (Array.copy !(h.regions));
                  };
                |]);
          if op = 0 || op = 1 || op = 3 || op = 4 then
            expect (not (Memory.is_shared m)))
        ops;
      Array.iter
        (fun h ->
          expect (Memory.size_words h.m = Array.length !(h.model));
          Array.iteri (fun addr v -> expect (Memory.get h.m addr = v)) !(h.model))
        !handles;
      !ok)

let prop_alloc_disjoint =
  QCheck.Test.make ~name:"allocations never overlap" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (int_range 1 64))
    (fun sizes ->
      let m = Memory.create () in
      let regions =
        List.map (fun w -> Memory.alloc m ~name:"r" ~words:w) sizes
      in
      let rec disjoint = function
        | [] -> true
        | (r : Memory.region) :: rest ->
          List.for_all
            (fun (s : Memory.region) ->
              r.Memory.base + r.Memory.words <= s.Memory.base
              || s.Memory.base + s.Memory.words <= r.Memory.base)
            rest
          && disjoint rest
      in
      disjoint regions)

(* Pacing (see memory.mli): buffer bytes allocated since the last
   paced collection are counted, and a buffer that brings the count to
   the major heap's size runs a full major before it is allocated. A
   memory of more words than the heap crosses the threshold whatever
   was counted before it, and restarts the count from zero. The heap
   size comes from the GC's sampled statistics, which a minor
   collection (in any domain) can move between two reads, so
   "larger than the heap" here means twice its size. *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words
let larger_than_heap () =
  Memory.create ~capacity_words:((2 * heap_words ()) + 1) ()

let[@inline never] finalised_when_dropped () =
  let finalised = ref false in
  Gc.finalise (fun _ -> finalised := true) (larger_than_heap ());
  finalised

let test_pacing_reclaims_dead_image () =
  let finalised = finalised_when_dropped () in
  let before = Memory.forced_major_collections () in
  let second = larger_than_heap () in
  Alcotest.(check bool) "dead image finalised before create returned" true
    !finalised;
  Alcotest.(check int) "one paced collection" (before + 1)
    (Memory.forced_major_collections ());
  ignore (Sys.opaque_identity second)

let test_pacing_accumulates () =
  ignore (Sys.opaque_identity (larger_than_heap ()));
  let part = heap_words () * 3 / 10 in
  let before = Memory.forced_major_collections () in
  let live =
    List.init 3 (fun i ->
        let m = Memory.create ~capacity_words:part () in
        Alcotest.(check int)
          (Printf.sprintf "no collection at %d tenths of the heap" (3 * (i + 1)))
          before
          (Memory.forced_major_collections ());
        m)
  in
  let last = Memory.create ~capacity_words:part () in
  Alcotest.(check int) "collects once the sum reaches the heap" (before + 1)
    (Memory.forced_major_collections ());
  ignore (Sys.opaque_identity (last :: live))

(* Two domains allocate at once, and one of them may be inside
   [Workload.make]'s locked first build (whose recipe grows its memory
   past the heap) while the other waits for that lock: a full major
   stops every domain, so this must not deadlock. Every buffer here is
   larger than the heap, so each allocation collects. *)
let test_pacing_two_domains () =
  let micro =
    { Micro.default_params with Micro.total = 1024; table_words = 4096 }
  in
  let w =
    Workload.make ~name:"paced" ~app:"paced" ~input:"" ~description:""
      ~nested:false (fun () ->
        let inst = Micro.build micro in
        ignore
          (Memory.alloc inst.Workload.mem ~name:"pad"
             ~words:((2 * heap_words ()) + 1));
        inst)
  in
  let before = Memory.forced_major_collections () in
  let work () =
    let inst = w.Workload.build () in
    for _ = 1 to 3 do
      ignore (Sys.opaque_identity (larger_than_heap ()))
    done;
    (* The first write copies the shared image: one more buffer. *)
    Memory.set inst.Workload.mem 0 1;
    inst
  in
  let other = Domain.spawn work in
  let here = work () in
  let there = Domain.join other in
  Alcotest.(check bool) "each domain wrote its own copy" true
    (here.Workload.mem != there.Workload.mem
    && Memory.get here.Workload.mem 0 = 1
    && Memory.get there.Workload.mem 0 = 1);
  Alcotest.(check bool) "every buffer collected" true
    (Memory.forced_major_collections () - before >= 1 + (2 * 4))

(* The obs counters: off by default (nothing registered), and when on
   they count every buffer byte and every paced collection. *)
let test_pacing_metrics () =
  Metrics.reset ();
  ignore (Sys.opaque_identity (Memory.create ~capacity_words:64 ()));
  Alcotest.(check (list (pair string int))) "nothing while off" []
    (Metrics.snapshot ()).Metrics.counters;
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      let words = (2 * heap_words ()) + 1 in
      let before = Memory.forced_major_collections () in
      ignore (Sys.opaque_identity (Memory.create ~capacity_words:words ()));
      let counters = (Metrics.snapshot ()).Metrics.counters in
      Alcotest.(check (option int)) "mem.buffer_bytes"
        (Some (words * (Sys.word_size / 8)))
        (List.assoc_opt "mem.buffer_bytes" counters);
      Alcotest.(check (option int)) "mem.collections"
        (Some (Memory.forced_major_collections () - before))
        (List.assoc_opt "mem.collections" counters))

let () =
  Alcotest.run "mem"
    [
      ( "memory",
        [
          Alcotest.test_case "alloc aligned" `Quick test_alloc_aligned;
          Alcotest.test_case "zero initialised" `Quick test_zero_initialised;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "blit roundtrip" `Quick test_blit_read_roundtrip;
          Alcotest.test_case "blit too large" `Quick test_blit_too_large;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "regions" `Quick test_regions;
          Alcotest.test_case "line of addr" `Quick test_line_of_addr;
          Alcotest.test_case "region edges" `Quick test_region_edges;
          Alcotest.test_case "alloc after growth reads zero" `Quick
            test_alloc_after_growth_zero;
          Alcotest.test_case "tail zero after reallocate" `Quick
            test_tail_zero_after_reallocate;
          Alcotest.test_case "init region" `Quick test_init_region;
        ] );
      ( "pacing",
        [
          Alcotest.test_case "dead image reclaimed before allocating" `Quick
            test_pacing_reclaims_dead_image;
          Alcotest.test_case "small buffers accumulate to the heap" `Quick
            test_pacing_accumulates;
          Alcotest.test_case "two domains and a locked first build" `Quick
            test_pacing_two_domains;
          Alcotest.test_case "obs counters" `Quick test_pacing_metrics;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_alloc_disjoint;
          QCheck_alcotest.to_alcotest prop_matches_model;
        ] );
    ]
