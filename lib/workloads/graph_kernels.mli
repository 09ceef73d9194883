(** CRONO-style graph kernels expressed in the repo IR (Table 3).

    Each kernel traverses a CSR graph laid out in simulated memory; the
    neighbour loops are the nested indirect patterns the paper targets.
    Verification mirrors the kernel host-side with identical integer
    arithmetic and compares results. *)

val row_bounds :
  Builder.t -> off_base:Ir.operand -> Ir.operand -> Ir.operand * Ir.operand
(** Emit the CSR row-bound loads [offsets[v]], [offsets[v+1]]. *)

val bfs : ?source:int -> Aptget_graph.Csr.t -> Workload.instance
(** Frontier-queue BFS. Returns (kernel return = number of visited
    vertices); verifies the visited count and the distance array
    against a host BFS. Delinquent load: [visited[cols[e]]]. *)

val dfs : ?source:int -> Aptget_graph.Csr.t -> Workload.instance
(** Iterative stack DFS marking reachable vertices; verifies the
    visit count. Its outer (stack) loop has a data-dependent induction
    update, so only inner-site prefetching applies — the paper's DFS
    behaves the same way (Fig. 10). *)

val pagerank : ?iters:int -> Aptget_graph.Csr.t -> Workload.instance
(** Pull-based fixed-point PageRank over the transposed graph;
    verifies all rank cells against a host mirror. Delinquent load:
    [contrib[cols[e]]]. *)

val sssp : ?source:int -> ?rounds:int -> Aptget_graph.Csr.t -> Workload.instance
(** Bellman-Ford rounds; verifies the distance array against a host
    mirror with identical relaxation order. Delinquent load:
    [dist[cols[e]]]. *)

val bc : ?source:int -> ?max_rounds:int -> Aptget_graph.Csr.t -> Workload.instance
(** Betweenness-centrality (Brandes, single source): level-synchronous
    forward phase computing depths and shortest-path counts, then a
    backward accumulation in fixed point. Verifies depth and sigma
    against a host BFS mirror. *)
