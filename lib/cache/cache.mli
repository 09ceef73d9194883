(** One set-associative cache level with LRU replacement.

    Keys are cache-line indices (word address / 8); the data itself
    lives in {!Aptget_mem.Memory}, so a cache only tracks presence.
    Line ids are non-negative: a negative line is never present, and
    inserting one is an error. Nothing here allocates. *)

type t

val no_line : int
(** [-1]: the "no line" sentinel returned by {!insert} when nothing was
    evicted. No line id can take it. *)

val create : size_bytes:int -> assoc:int -> line_bytes:int -> t
(** [create ~size_bytes ~assoc ~line_bytes] builds an empty cache.
    [size_bytes] must be divisible by [assoc * line_bytes]; the number
    of sets must be a power of two. *)

val sets : t -> int
val assoc : t -> int

val slots : t -> int
(** [sets * assoc]: the number of ways in the whole cache. {!slot}
    returns indices in [[0, slots)]. *)

val slot : t -> int -> int
(** [slot t line] is the index of the way holding [line], or [-1] when
    it is absent. The index is stable until the line is evicted, so a
    caller can keep per-way metadata beside the cache. Does not update
    recency. *)

val probe : t -> int -> bool
(** [probe t line] is [true] iff [line] is present. Does not update
    recency. *)

val touch : t -> int -> bool
(** [touch t line] probes and, on a hit, refreshes LRU recency.
    Returns whether it hit. *)

val insert : t -> int -> int
(** [insert t line] installs [line] in the least recently used way of
    its set (an invalid way if there is one) and returns the line it
    evicted, or {!no_line}. Inserting a present line just refreshes
    recency and returns {!no_line}.

    Raises [Invalid_argument] on a negative line. *)

val insert_absent : t -> int -> int
(** [insert] for a line the caller knows is absent (it just missed
    here): skips the presence scan. Inserting a present line this way
    would hold it twice. *)

val invalidate : t -> int -> unit
(** Drop a line if present. *)

val clear : t -> unit
(** Empty the cache. *)

val occupancy : t -> int
(** Number of valid lines currently held. *)
