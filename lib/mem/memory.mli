(** Flat, word-addressed simulated memory.

    The workloads lay out their data structures (graphs, tables, hash
    buckets) in this address space; the timing simulator translates word
    addresses to 64-byte cache lines. One word = 8 bytes, so 8 words per
    line. Addresses are plain [int] word indices.

    A handle can be shared copy-on-write ({!share}): several handles
    then read one buffer, and the first write through any of them
    ([set], [blit_array], [init_region], [alloc]) gives that handle a
    private copy first. A write through one handle is therefore never
    visible through another.

    Buffers are paced like heap memory. Every buffer this module
    allocates ([create], growth in [alloc], the copy a shared handle
    makes on its first write) adds its size to a process-wide count of
    bytes allocated since the last paced collection. When the count,
    the new buffer included, reaches the size of the major heap, a
    [Gc.full_major] runs and the count restarts from zero before the
    buffer is allocated. Buffers live outside the OCaml heap, and the
    major GC does not count them when it paces its own cycles, so
    without this a dead image would stay mapped until an unrelated
    cycle finished. Pacing changes when host memory is returned, never
    what a handle reads. *)

type t

type region = {
  name : string;
  base : int;  (** first word address *)
  words : int; (** length in words *)
}
(** A named allocation, used by workloads to pass base addresses into IR
    kernels and by diagnostics to attribute cache traffic. *)

val forced_major_collections : unit -> int
(** Full major collections the pacing rule has run in this process,
    from every domain. The metrics registry counts the same events as
    [mem.collections], and buffer bytes as [mem.buffer_bytes]. *)

val words_per_line : int
(** 8: cache line size (64 B) divided by word size (8 B). *)

val create : ?capacity_words:int -> unit -> t
(** Fresh memory; capacity defaults to 1 Mi words (8 MiB) and grows on
    demand in [alloc]. Words are stored in a [Bigarray.Array1] of
    native ints outside the OCaml heap, so the GC never scans them. *)

val alloc : t -> name:string -> words:int -> region
(** Bump-allocate [words] words, line-aligned, zero-initialised. *)

val share : t -> t
(** [share t] is a new handle onto [t]'s buffer, with [t]'s allocations
    and contents. Both [t] and the result are then shared: each copies
    the buffer on its next write, so neither ever sees the other's
    writes. Sharing costs no copy; reads are unchanged, and a write
    through a handle that is not shared pays one field test. *)

val is_shared : t -> bool
(** Whether the next write through this handle copies the buffer
    first. False after any write or allocation through it. *)

val size_words : t -> int
(** Words allocated so far. *)

val get : t -> int -> int
(** [get t addr] reads the word at [addr]. Bounds-checked. *)

val set : t -> int -> int -> unit
(** [set t addr v] writes [v] at [addr]. Bounds-checked. *)

val blit_array : t -> region -> int array -> unit
(** Copy an OCaml array into a region (must fit). Raises
    [Invalid_argument] if [r] lies outside [t]'s allocations. *)

val init_region : t -> region -> (int -> int) -> unit
(** [init_region t r f] sets word [r.base + i] to [f i] for every [i]
    in [[0, r.words)], in ascending [i]: a region is filled straight
    from a generator, without a host array to blit from. Raises
    [Invalid_argument] if [r] lies outside [t]'s allocations. *)

val read_array : t -> region -> int array
(** Copy a region out into a fresh array. Raises [Invalid_argument] if
    [r] lies outside [t]'s allocations. *)

val line_of_addr : int -> int
(** Cache line index of a word address. *)

val regions : t -> region list
(** All allocations, in allocation order. *)

val find_region : t -> int -> region option
(** Region containing a word address, if any. *)
