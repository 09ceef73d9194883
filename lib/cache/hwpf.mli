(** Hardware prefetchers: next-line and per-PC stride.

    Models the simple prefetchers shipped in real CPUs (§1: only
    next-line and stride prefetchers exist in hardware). They cover
    sequential and strided streams, leaving irregular *indirect*
    accesses — the paper's target — uncovered. *)

type t

val create : ?stride_table_size:int -> ?degree:int -> unit -> t
(** [degree] is how many lines ahead a confident stream prefetches
    (default 2). The stride table is direct-mapped on load PC (default
    256 entries). *)

val disabled : unit -> t
(** A prefetcher that never issues anything (for ablations and for the
    microbenchmark study, which disables HW prefetching interference). *)

val set_line_limit : t -> lines:int -> unit
(** Clamp emitted targets to lines strictly below [lines] (the backing
    region's extent in cache lines). Non-positive [lines] removes the
    bound. Without a limit the stride path only rejects negative
    targets and the next-line path fires unconditionally, so prefetches
    can land past the end of the region. *)

val on_demand_access : t -> pc:int -> addr:int -> miss:bool -> int
(** [on_demand_access t ~pc ~addr ~miss] trains the prefetcher with a
    demand load of word address [addr >= 0] issued by instruction [pc] and
    returns how many cache lines to prefetch; {!target} reads them.
    Next-line fires on misses; the stride prefetcher fires once a PC
    has shown the same word-stride twice in a row. Allocates nothing:
    the targets live in a buffer the next call overwrites. *)

val target : t -> int -> int
(** [target t i] is the [i]th line the last {!on_demand_access}
    emitted, for [i] below its result. Targets are ascending and
    distinct. *)
