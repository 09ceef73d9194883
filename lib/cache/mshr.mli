(** Miss-status holding registers (fill buffers).

    Track cache-line fills in flight. A demand load that finds its line
    here was prefetched *too late*: it must wait for the remaining fill
    latency. This is the event the paper measures as
    [LOAD_HIT_PRE.SW_PF] (§2.3).

    Entries live in fixed-capacity arrays and are addressed by index:
    {!find} and {!next_ready} return one, the accessors read it, and
    {!remove_at} frees it. An index is valid until the next
    {!allocate}, {!remove_at} or {!clear}. Nothing here allocates after
    {!create}. *)

type origin =
  | Demand        (** fill triggered by a blocking demand miss *)
  | Sw_prefetch   (** fill triggered by a software prefetch *)
  | Hw_prefetch   (** fill triggered by the hardware prefetcher *)

type t

val create : capacity:int -> t
(** [capacity] outstanding fills; further allocations fail. *)

val capacity : t -> int
val in_flight : t -> int

val find : t -> int -> int
(** Index of the entry for a line, or [-1] when no fill is in flight
    for it. *)

val line : t -> int -> int
val ready_at : t -> int -> int
(** Cycle at which the entry's fill completes. *)

val origin : t -> int -> origin
(** [line], [ready_at] and [origin] read entry [i]; they raise
    [Invalid_argument] if [i] is not a live index. *)

val allocate : t -> line:int -> ready_at:int -> origin:origin -> bool
(** [allocate t ~line ~ready_at ~origin] starts a fill for a line that
    is not in flight: callers check {!find} first, and a request for an
    in-flight line coalesces with its fill instead. Returns [false] (and
    does nothing) when the buffers are full. Allocating a line already
    in flight would track it twice. *)

val remove_at : t -> int -> unit
(** Free entry [i] (a completed fill, or one a demand load absorbed). *)

val next_ready : t -> now:int -> int
(** Index of the next fill to install at [now], or [-1] when none has
    completed. Completed fills come out in [ready_at] order; fills
    completing at the same cycle come out newest-allocated first.
    Draining is [next_ready], read, [remove_at], until [-1]. *)

val clear : t -> unit
