(** One set-associative cache level with LRU replacement.

    Keys are cache-line indices (word address / 8); the data itself
    lives in {!Aptget_mem.Memory}, so a cache only tracks presence.
    Line ids are non-negative: a negative line is never present, and
    inserting one is an error. Each present line carries an int
    {e mark} for its owner's bookkeeping: it enters with mark 0 and
    the mark leaves with it. Nothing here allocates. *)

type t

val no_line : int
(** [-1]: the "no line" sentinel returned by {!insert} when nothing was
    evicted. No line id can take it. *)

val create : size_bytes:int -> assoc:int -> line_bytes:int -> t
(** [create ~size_bytes ~assoc ~line_bytes] builds an empty cache.
    [size_bytes] must be divisible by [assoc * line_bytes]; the number
    of sets must be a power of two. *)

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

val evicted_mark : t -> int
(** The mark of the line the last {!insert} evicted, 0 if none. *)

val mark : t -> int -> int
(** [mark t line] is [line]'s mark, 0 when it is absent. *)

val set_mark : t -> int -> int -> unit
(** [set_mark t line m] marks a present line; no-op when absent. Both
    lookups start at the most recently used line of the set. *)

val invalidate : t -> int -> unit
(** Drop a line if present. *)

val clear : t -> unit
(** Empty the cache. *)

val occupancy : t -> int
(** Number of valid lines currently held. *)
