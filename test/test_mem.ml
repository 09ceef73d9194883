module Memory = Aptget_mem.Memory

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

(* Region-edge accesses for both backings: the last allocated word is
   the edge of the bounds check ([next]), so get/set must work at
   [base + words - 1] and raise one word past it — under the default
   Bigarray backing and the plain-array one alike. The unsafe accessors
   behind the explicit check make this the test that matters. *)
let test_region_edges () =
  List.iter
    (fun backing ->
      let name =
        match backing with `Array -> "array" | `Bigarray -> "bigarray"
      in
      let m = Memory.create ~capacity_words:64 ~backing () in
      let r = Memory.alloc m ~name:"edge" ~words:24 in
      let last = r.Memory.base + r.Memory.words - 1 in
      Memory.set m r.Memory.base 11;
      Memory.set m last 22;
      Alcotest.(check int) (name ^ " first word") 11 (Memory.get m r.Memory.base);
      Alcotest.(check int) (name ^ " last word") 22 (Memory.get m last);
      Alcotest.(check bool) (name ^ " get past end raises") true
        (try
           ignore (Memory.get m (last + 1));
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool) (name ^ " set past end raises") true
        (try
           Memory.set m (last + 1) 1;
           false
         with Invalid_argument _ -> true);
      Alcotest.(check bool) (name ^ " negative set raises") true
        (try
           Memory.set m (-1) 1;
           false
         with Invalid_argument _ -> true);
      (* blit_array: exactly full is fine (and lands on the edge), one
         element more must raise before touching memory. *)
      let full = Array.init r.Memory.words (fun i -> 100 + i) in
      Memory.blit_array m r full;
      Alcotest.(check int)
        (name ^ " blit reaches last word")
        (100 + r.Memory.words - 1)
        (Memory.get m last);
      Alcotest.(check (array int)) (name ^ " blit roundtrip") full
        (Memory.read_array m r);
      Alcotest.check_raises
        (name ^ " blit overflow")
        (Invalid_argument "Memory.blit_array: too large")
        (fun () ->
          Memory.blit_array m r (Array.make (r.Memory.words + 1) 0));
      Alcotest.(check int)
        (name ^ " overflow left memory untouched")
        (100 + r.Memory.words - 1)
        (Memory.get m last);
      (* A grown memory keeps the same backing and the same edge
         behaviour. *)
      let big = Memory.alloc m ~name:"grown" ~words:4096 in
      Alcotest.(check bool)
        (name ^ " backing preserved across growth")
        true
        (Memory.backend m = backing);
      let glast = big.Memory.base + big.Memory.words - 1 in
      Memory.set m glast 33;
      Alcotest.(check int) (name ^ " grown last word") 33 (Memory.get m glast);
      Alcotest.(check bool) (name ^ " grown get past end raises") true
        (try
           ignore (Memory.get m (glast + 1));
           false
         with Invalid_argument _ -> true))
    [ `Array; `Bigarray ]

(* [alloc] no longer zero-fills: words past the allocation frontier are
   zero because nothing writes there and growth copies only what is
   allocated. A region allocated by a growing [alloc], right after a
   region written all over, must still read 0 in every word (and so
   must the alignment gap between them), under either backing. *)
let test_alloc_after_growth_zero () =
  List.iter
    (fun backing ->
      let m = Memory.create ~capacity_words:16 ~backing () in
      let a = Memory.alloc m ~name:"a" ~words:13 in
      Memory.init_region m a (fun i -> -1 - i);
      let b = Memory.alloc m ~name:"b" ~words:1000 in
      Alcotest.(check bool) "grew" true (b.Memory.base + b.Memory.words > 16);
      for addr = a.Memory.base + a.Memory.words to b.Memory.base + b.Memory.words - 1 do
        if Memory.get m addr <> 0 then
          Alcotest.failf "word %d reads %d after growth" addr (Memory.get m addr)
      done;
      Alcotest.(check int) "old data kept" (-13) (Memory.get m (a.Memory.base + 12)))
    [ `Array; `Bigarray ]

let test_init_region () =
  List.iter
    (fun backing ->
      let m = Memory.create ~capacity_words:16 ~backing () in
      let _ = Memory.alloc m ~name:"pad" ~words:3 in
      let r = Memory.alloc m ~name:"r" ~words:5 in
      let order = ref [] in
      Memory.init_region m r (fun i ->
          order := i :: !order;
          10 * i);
      Alcotest.(check (list int)) "ascending calls" [ 0; 1; 2; 3; 4 ] (List.rev !order);
      Alcotest.(check (array int)) "values" [| 0; 10; 20; 30; 40 |]
        (Memory.read_array m r);
      let other = { r with Memory.base = r.Memory.base + 8 } in
      Alcotest.check_raises "outside the allocations"
        (Invalid_argument "Memory.init_region: region out of bounds") (fun () ->
          Memory.init_region m other (fun _ -> 1)))
    [ `Array; `Bigarray ]

(* The two backings must be observably identical on the same
   operation sequence. *)
let prop_backends_agree =
  QCheck.Test.make ~name:"array and bigarray backings agree" ~count:50
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_range 0 63) small_int))
    (fun ops ->
      let run backing =
        let m = Memory.create ~capacity_words:16 ~backing () in
        let r = Memory.alloc m ~name:"r" ~words:64 in
        List.iter
          (fun (off, v) -> Memory.set m (r.Memory.base + off) v)
          ops;
        Array.to_list (Memory.read_array m r)
      in
      run `Array = run `Bigarray)

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
          Alcotest.test_case "init region" `Quick test_init_region;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_alloc_disjoint;
          QCheck_alcotest.to_alcotest prop_backends_agree;
        ] );
    ]
