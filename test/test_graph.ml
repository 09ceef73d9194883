module Csr = Aptget_graph.Csr
module Generate = Aptget_graph.Generate
module Datasets = Aptget_graph.Datasets

let check_valid g =
  match Csr.validate g with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid CSR: " ^ e)

let test_of_edges () =
  let g = Csr.of_edges ~n:3 [| (0, 1); (0, 2); (1, 2) |] in
  check_valid g;
  Alcotest.(check int) "n" 3 g.Csr.n;
  Alcotest.(check int) "m" 3 g.Csr.m;
  Alcotest.(check int) "degree 0" 2 (Csr.degree g 0);
  Alcotest.(check int) "degree 2" 0 (Csr.degree g 2);
  Alcotest.(check (array int)) "neighbours" [| 1; 2 |] (Csr.neighbours g 0)

let test_of_edges_out_of_range () =
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Csr.of_edges ~n:2 [| (0, 5) |]);
       false
     with Invalid_argument _ -> true)

let test_weights () =
  let g = Csr.of_edges ~weights:[| 7; 9 |] ~n:2 [| (0, 1); (1, 0) |] in
  Alcotest.(check (array int)) "weights kept" [| 7 |]
    (Array.sub g.Csr.weights g.Csr.offsets.(0) 1)

let test_degrees () =
  let g = Csr.of_edges ~n:4 [| (0, 1); (0, 2); (0, 3); (1, 0) |] in
  Alcotest.(check int) "max degree" 3 (Csr.max_degree g);
  Alcotest.(check (float 1e-9)) "avg degree" 1.0 (Csr.avg_degree g)

let edge_multiset g =
  let acc = ref [] in
  for u = 0 to g.Csr.n - 1 do
    Array.iter (fun v -> acc := (u, v) :: !acc) (Csr.neighbours g u)
  done;
  List.sort compare !acc

let test_reverse_involution () =
  let g = Csr.of_edges ~n:5 [| (0, 1); (2, 3); (3, 0); (4, 4) |] in
  let rr = Csr.reverse (Csr.reverse g) in
  Alcotest.(check bool) "reverse^2 = id (as multiset)" true
    (edge_multiset g = edge_multiset rr)

let test_symmetrize () =
  let g = Csr.of_edges ~n:3 [| (0, 1); (1, 2) |] in
  let s = Csr.symmetrize g in
  check_valid s;
  let edges = edge_multiset s in
  Alcotest.(check bool) "has both directions" true
    (List.mem (1, 0) edges && List.mem (2, 1) edges);
  Alcotest.(check bool) "symmetric" true
    (List.for_all (fun (u, v) -> List.mem (v, u) edges) edges)

let test_generators_valid_and_deterministic () =
  let gens =
    [
      ("uniform", fun () -> Generate.uniform ~seed:1 ~n:500 ~degree:4);
      ("rmat", fun () -> Generate.rmat ~seed:1 ~scale:9 ~edge_factor:4);
      ("grid", fun () -> Generate.grid ~seed:1 ~width:20 ~height:25);
      ("preferential", fun () -> Generate.preferential ~seed:1 ~n:500 ~degree:4);
    ]
  in
  List.iter
    (fun (name, gen) ->
      let a = gen () and b = gen () in
      check_valid a;
      Alcotest.(check bool) (name ^ " deterministic") true
        (edge_multiset a = edge_multiset b);
      Alcotest.(check bool) (name ^ " non-empty") true (a.Csr.m > 0))
    gens

let test_uniform_shape () =
  let g = Generate.uniform ~seed:3 ~n:100 ~degree:5 in
  Alcotest.(check int) "m = n * degree" 500 g.Csr.m;
  for v = 0 to 99 do
    Alcotest.(check int) "uniform out-degree" 5 (Csr.degree g v)
  done

let test_rmat_skew () =
  let g = Generate.rmat ~seed:5 ~scale:10 ~edge_factor:8 in
  Alcotest.(check int) "n = 2^scale" 1024 g.Csr.n;
  Alcotest.(check bool) "power-law skew: max >> avg" true
    (float_of_int (Csr.max_degree g) > 4. *. Csr.avg_degree g)

let test_grid_shape () =
  let g = Generate.grid ~seed:1 ~width:10 ~height:10 in
  Alcotest.(check int) "n" 100 g.Csr.n;
  (* interior vertices have degree ~4 *)
  Alcotest.(check bool) "small max degree" true (Csr.max_degree g <= 8)

let test_random_weights () =
  let g = Generate.uniform ~seed:1 ~n:50 ~degree:3 in
  let w = Generate.random_weights ~seed:2 ~max_weight:10 g in
  Alcotest.(check bool) "weights in range" true
    (Array.for_all (fun x -> x >= 1 && x <= 10) w.Csr.weights);
  Alcotest.(check bool) "structure unchanged" true
    (w.Csr.offsets = g.Csr.offsets && w.Csr.cols = g.Csr.cols)

let test_datasets_registry () =
  Alcotest.(check int) "eight datasets" 8 (List.length Datasets.all);
  (match Datasets.find "WG" with
  | Some s -> Alcotest.(check string) "by short" "web-Google" s.Datasets.name
  | None -> Alcotest.fail "WG not found");
  (match Datasets.find "roadnet-ca" with
  | Some s -> Alcotest.(check string) "by name, case-insensitive" "CA" s.Datasets.short
  | None -> Alcotest.fail "roadNet-CA not found");
  Alcotest.(check bool) "miss" true (Datasets.find "nope" = None)

let test_datasets_build () =
  (* Build a small one and check plausibility. *)
  let spec = Option.get (Datasets.find "P2P") in
  let g = Datasets.build ~seed:1 spec in
  check_valid g;
  Alcotest.(check int) "scaled size" spec.Datasets.scaled_vertices g.Csr.n

let prop_csr_roundtrip =
  QCheck.Test.make ~name:"of_edges preserves the edge multiset" ~count:100
    QCheck.(
      pair (int_range 1 20)
        (list_of_size Gen.(0 -- 60) (pair (int_bound 19) (int_bound 19))))
    (fun (n, edges) ->
      let edges = List.filter (fun (u, v) -> u < n && v < n) edges in
      let g = Csr.of_edges ~n (Array.of_list edges) in
      Csr.validate g = Ok ()
      && edge_multiset g = List.sort compare edges)

let prop_symmetrize_symmetric =
  QCheck.Test.make ~name:"symmetrize yields a symmetric graph" ~count:50
    QCheck.(
      pair (int_range 2 15)
        (list_of_size Gen.(1 -- 40) (pair (int_bound 14) (int_bound 14))))
    (fun (n, edges) ->
      let edges = List.filter (fun (u, v) -> u < n && v < n) edges in
      if edges = [] then true
      else begin
        let s = Csr.symmetrize (Csr.of_edges ~n (Array.of_list edges)) in
        let es = edge_multiset s in
        List.for_all (fun (u, v) -> List.mem (v, u) es) es
      end)

(* The Hashtbl implementation [Csr.symmetrize] replaced, kept as its
   oracle: every (u, v) and (v, u) key, first add wins (forward edges
   in CSR order, then reverse edges in CSR order), sorted. *)
let symmetrize_oracle (g : Csr.t) =
  let pairs = ref [] in
  for u = g.Csr.n - 1 downto 0 do
    for e = g.Csr.offsets.(u + 1) - 1 downto g.Csr.offsets.(u) do
      pairs := ((u, g.Csr.cols.(e)), g.Csr.weights.(e)) :: !pairs
    done
  done;
  let tbl = Hashtbl.create (2 * g.Csr.m) in
  List.iter
    (fun ((u, v), w) -> if not (Hashtbl.mem tbl (u, v)) then Hashtbl.add tbl (u, v) w)
    !pairs;
  List.iter
    (fun ((u, v), w) -> if not (Hashtbl.mem tbl (v, u)) then Hashtbl.add tbl (v, u) w)
    !pairs;
  let all = List.sort compare (Hashtbl.fold (fun k w acc -> (k, w) :: acc) tbl []) in
  Csr.of_edges
    ~weights:(Array.of_list (List.map snd all))
    ~n:g.Csr.n
    (Array.of_list (List.map fst all))

(* Small vertex and weight ranges make duplicate edges, self-loops and
   one pair carrying different weights in each direction common. *)
let prop_symmetrize_matches_oracle =
  QCheck.Test.make ~name:"symmetrize matches the Hashtbl oracle" ~count:300
    QCheck.(
      pair (int_range 1 12)
        (list_of_size Gen.(0 -- 60)
           (triple (int_bound 11) (int_bound 11) (int_range 1 4))))
    (fun (n, edges) ->
      let edges = List.filter (fun (u, v, _) -> u < n && v < n) edges in
      let g =
        Csr.of_edges
          ~weights:(Array.of_list (List.map (fun (_, _, w) -> w) edges))
          ~n
          (Array.of_list (List.map (fun (u, v, _) -> (u, v)) edges))
      in
      Csr.symmetrize g = symmetrize_oracle g)

let () =
  Alcotest.run "graph"
    [
      ( "csr",
        [
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "out of range" `Quick test_of_edges_out_of_range;
          Alcotest.test_case "weights" `Quick test_weights;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "reverse involution" `Quick test_reverse_involution;
          Alcotest.test_case "symmetrize" `Quick test_symmetrize;
        ] );
      ( "generators",
        [
          Alcotest.test_case "valid + deterministic" `Quick
            test_generators_valid_and_deterministic;
          Alcotest.test_case "uniform shape" `Quick test_uniform_shape;
          Alcotest.test_case "rmat skew" `Quick test_rmat_skew;
          Alcotest.test_case "grid shape" `Quick test_grid_shape;
          Alcotest.test_case "random weights" `Quick test_random_weights;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "registry" `Quick test_datasets_registry;
          Alcotest.test_case "build" `Quick test_datasets_build;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_csr_roundtrip;
            prop_symmetrize_symmetric;
            prop_symmetrize_matches_oracle;
          ] );
    ]
