type t = {
  n : int;
  m : int;
  offsets : int array;
  cols : int array;
  weights : int array;
}

let of_edges ?weights ~n edges =
  let m = Array.length edges in
  (match weights with
  | Some w when Array.length w <> m ->
    invalid_arg "Csr.of_edges: weights length mismatch"
  | _ -> ());
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Csr.of_edges: endpoint out of range";
      deg.(u) <- deg.(u) + 1)
    edges;
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + deg.(v)
  done;
  let cols = Array.make m 0 in
  let w_out = Array.make m 1 in
  let cursor = Array.copy offsets in
  Array.iteri
    (fun i (u, v) ->
      let slot = cursor.(u) in
      cols.(slot) <- v;
      (match weights with Some w -> w_out.(slot) <- w.(i) | None -> ());
      cursor.(u) <- slot + 1)
    edges;
  { n; m; offsets; cols; weights = w_out }

let degree g v = g.offsets.(v + 1) - g.offsets.(v)

let neighbours g v =
  Array.sub g.cols g.offsets.(v) (degree g v)

let avg_degree g = if g.n = 0 then 0. else float_of_int g.m /. float_of_int g.n

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let edges_of g =
  let acc = Array.make g.m ((0, 0), 1) in
  let k = ref 0 in
  for u = 0 to g.n - 1 do
    for e = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      acc.(!k) <- ((u, g.cols.(e)), g.weights.(e));
      incr k
    done
  done;
  acc

let reverse g =
  let pairs = edges_of g in
  let edges = Array.map (fun ((u, v), _) -> (v, u)) pairs in
  let weights = Array.map snd pairs in
  of_edges ~weights ~n:g.n edges

(* Row [u] of the result collects u's forward edges, in CSR order, then
   every reverse edge (u, x) of a forward (x, u), in CSR order of the
   forward edges. Sorting a row by (target, slot) and keeping the first
   entry per target keeps the first-ranked weight: forward before
   reverse, earlier before later. *)
let symmetrize g =
  let n = g.n in
  let start = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    start.(u + 1) <- start.(u + 1) + degree g u;
    for e = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      let v = g.cols.(e) in
      start.(v + 1) <- start.(v + 1) + 1
    done
  done;
  for u = 0 to n - 1 do
    start.(u + 1) <- start.(u + 1) + start.(u)
  done;
  let cand_col = Array.make (2 * g.m) 0 in
  let cand_w = Array.make (2 * g.m) 0 in
  let cursor = Array.sub start 0 n in
  let push u v w =
    let slot = cursor.(u) in
    cand_col.(slot) <- v;
    cand_w.(slot) <- w;
    cursor.(u) <- slot + 1
  in
  for u = 0 to n - 1 do
    for e = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      push u g.cols.(e) g.weights.(e)
    done
  done;
  for u = 0 to n - 1 do
    for e = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      push g.cols.(e) u g.weights.(e)
    done
  done;
  let offsets = Array.make (n + 1) 0 in
  let cols = Array.make (2 * g.m) 0 in
  let weights = Array.make (2 * g.m) 0 in
  let m = ref 0 in
  for u = 0 to n - 1 do
    let s = start.(u) and len = start.(u + 1) - start.(u) in
    let keys = Array.init len (fun j -> (cand_col.(s + j) * len) + j) in
    Array.sort Int.compare keys;
    let last = ref (-1) in
    Array.iter
      (fun k ->
        let v = k / len in
        if v <> !last then begin
          cols.(!m) <- v;
          weights.(!m) <- cand_w.(s + (k mod len));
          incr m;
          last := v
        end)
      keys;
    offsets.(u + 1) <- !m
  done;
  {
    n;
    m = !m;
    offsets;
    cols = Array.sub cols 0 !m;
    weights = Array.sub weights 0 !m;
  }

let validate g =
  let err what = Error what in
  if Array.length g.offsets <> g.n + 1 then err "offsets length <> n+1"
  else if Array.length g.cols <> g.m then err "cols length <> m"
  else if Array.length g.weights <> g.m then err "weights length <> m"
  else if g.offsets.(0) <> 0 then err "offsets.(0) <> 0"
  else if g.offsets.(g.n) <> g.m then err "offsets.(n) <> m"
  else begin
    let ok = ref (Ok ()) in
    for v = 0 to g.n - 1 do
      if g.offsets.(v) > g.offsets.(v + 1) then ok := err "offsets not monotone"
    done;
    Array.iter
      (fun c -> if c < 0 || c >= g.n then ok := err "column out of range")
      g.cols;
    !ok
  end
