(** Last Branch Record: a ring buffer of the most recent taken branches.

    Mirrors Intel's LBR with cycle-count support (paper §3.1, Fig. 3):
    each entry holds the branch instruction's PC, its target PC, and the
    core cycle at which the branch retired. The ring holds 32 entries by
    default.

    Entries are read in place by chronological index, oldest first:
    [branch_pc t 0] is the oldest entry still held and
    [branch_pc t (length t - 1)] the newest. Nothing here allocates
    after {!create}; {!Sampler} copies the entries it keeps into its
    snapshot log. *)

type t

val create : ?size:int -> unit -> t
(** Default size 32, as on the paper's Xeon. *)

val size : t -> int

val record : t -> branch_pc:int -> target_pc:int -> cycle:int -> unit
(** Push a taken branch, evicting the oldest entry when full. *)

val length : t -> int
(** Entries held: the number recorded since the last {!clear}, capped
    at {!size}. *)

val branch_pc : t -> int -> int
val target_pc : t -> int -> int

val cycle : t -> int -> int
(** [branch_pc t i], [target_pc t i] and [cycle t i] read the [i]-th
    oldest entry held.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val clear : t -> unit
