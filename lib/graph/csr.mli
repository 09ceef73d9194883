(** Compressed-sparse-row graphs.

    All graph workloads (BFS, DFS, PR, BC, SSSP, Graph500) traverse
    this representation: [offsets] has [n+1] entries; the neighbours of
    vertex [v] are [cols.(offsets.(v)) .. cols.(offsets.(v+1) - 1)],
    with optional per-edge [weights]. The traversal loop over a vertex's
    neighbours is exactly the paper's nested-loop indirect pattern:
    trip count = vertex degree. *)

type t = {
  n : int;
  m : int;               (** directed edge count *)
  offsets : int array;   (** length n+1, non-decreasing *)
  cols : int array;      (** length m, targets in [0, n) *)
  weights : int array;   (** length m (all 1 when unweighted) *)
}

val of_edges : ?weights:int array -> n:int -> (int * int) array -> t
(** Build from a directed edge list. Parallel edges are kept;
    out-of-range endpoints raise. *)

val degree : t -> int -> int
val neighbours : t -> int -> int array
val avg_degree : t -> float
val max_degree : t -> int

val reverse : t -> t
(** Transpose (used by PageRank's pull formulation). *)

val symmetrize : t -> t
(** Add every reverse edge (weights copied) and keep one edge per
    (source, target), each row sorted by target. An edge keeps the
    weight of its first occurrence in CSR order, and a forward edge
    wins over a reverse one. Linear in the edges apart from a per-row
    sort. Used for undirected benchmarks (Graph500). *)

val validate : t -> (unit, string) result
(** Structural invariants: offsets monotone and bounded, cols in range,
    lengths consistent. *)
