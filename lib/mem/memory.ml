type region = { name : string; base : int; words : int }

(* Words live in a [Bigarray.Array1] of native ints: the payload sits
   outside the OCaml heap (the GC never scans it) and elements are
   untagged machine words, which keeps the simulator's load/store hot
   path cheap.

   [Bigarray.Array1.create] does not zero its storage, so [create]
   zero-fills the initial buffer and [reallocate] the part of a fresh
   buffer it does not copy over.
   Every word at or past [next] is therefore still zero (writes are
   bounds-checked against [next], and [reallocate] copies only [0, next)),
   which is why [alloc] hands out fresh regions, and the alignment gaps
   between them, without filling them.

   [shared] marks a handle whose buffer another handle may alias (see
   [share]). Every writer calls [own] first, which gives a shared
   handle a private copy of the buffer before the write; readers never
   look at the flag. *)
type t = {
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable next : int;
  mutable regions : region list; (* reversed *)
  mutable shared : bool;
}

let words_per_line = 8

(* Pacing (see memory.mli): OCaml 5.1's major GC does not count these
   out-of-heap buffers when it paces its cycles, so without this a dead
   image stays mapped until some unrelated cycle finishes. A full major
   costs time in proportion to the heap and runs at most once per
   heap-sized amount of buffer allocation, so collection work stays
   proportional to allocation work, as in the GC's own pacing. *)
let bytes_per_word = Sys.word_size / 8
let unpaced_bytes = Atomic.make 0
let collections = Atomic.make 0
let forced_major_collections () = Atomic.get collections

let pace bytes =
  Aptget_obs.Metrics.incr ~by:bytes "mem.buffer_bytes";
  let pending = Atomic.fetch_and_add unpaced_bytes bytes + bytes in
  if pending >= (Gc.quick_stat ()).heap_words * bytes_per_word then begin
    Atomic.set unpaced_bytes 0;
    Atomic.incr collections;
    Aptget_obs.Metrics.incr "mem.collections";
    Gc.full_major ()
  end

let make_data cap =
  pace (cap * bytes_per_word);
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap

let create ?(capacity_words = 1 lsl 20) () =
  let data = make_data capacity_words in
  Bigarray.Array1.fill data 0;
  { data; next = 0; regions = []; shared = false }

(* Move [t] onto a fresh buffer of [cap] words: its allocated words
   [0, next) are copied over and only the rest is zero-filled, so the
   words past [next] stay zero. *)
let reallocate t cap =
  let fresh = make_data cap in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub t.data 0 t.next)
    (Bigarray.Array1.sub fresh 0 t.next);
  Bigarray.Array1.fill (Bigarray.Array1.sub fresh t.next (cap - t.next)) 0;
  t.data <- fresh

let ensure t needed =
  let cap = Bigarray.Array1.dim t.data in
  if needed > cap then reallocate t (max needed (cap * 2))

let share t =
  t.shared <- true;
  { t with shared = true }

let is_shared t = t.shared

let[@inline never] unshare t =
  reallocate t (Bigarray.Array1.dim t.data);
  t.shared <- false

let[@inline] own t = if t.shared then unshare t

let align_up v a = (v + a - 1) / a * a

let alloc t ~name ~words =
  if words < 0 then invalid_arg "Memory.alloc: negative size";
  let base = align_up t.next words_per_line in
  let words_alloc = max words 1 in
  own t;
  ensure t (base + words_alloc);
  t.next <- base + words_alloc;
  let r = { name; base; words = words_alloc } in
  t.regions <- r :: t.regions;
  r

let size_words t = t.next

(* Cold out-of-bounds paths are split out so the bounds-checked
   accessors below stay small — [get] and [set] sit on the simulator's
   per-load/store hot path. [@inline] only inlines them within this
   module: dune's dev profile compiles with [-opaque], so callers in
   other libraries (the machine, the workloads) make an out-of-line
   call; only a release build inlines across modules. *)
let[@inline never] oob_get addr =
  invalid_arg (Printf.sprintf "Memory.get: address %d out of bounds" addr)

let[@inline never] oob_set addr =
  invalid_arg (Printf.sprintf "Memory.set: address %d out of bounds" addr)

(* The explicit range check already implies the access is in bounds
   ([next <= capacity] is an [ensure] invariant), so the access itself
   can skip the second, redundant bounds check. *)
let[@inline] get t addr =
  if addr < 0 || addr >= t.next then oob_get addr;
  Bigarray.Array1.unsafe_get t.data addr

let[@inline] set t addr v =
  if addr < 0 || addr >= t.next then oob_set addr;
  own t;
  Bigarray.Array1.unsafe_set t.data addr v

(* [region] is a public record, so a caller can hand in one that lies
   outside the allocations; the unsafe accesses below rely on this
   check. *)
let check_region fn t r =
  if r.base < 0 || r.base + r.words > t.next then
    invalid_arg ("Memory." ^ fn ^ ": region out of bounds")

let blit_array t r a =
  if Array.length a > r.words then invalid_arg "Memory.blit_array: too large";
  check_region "blit_array" t r;
  own t;
  for i = 0 to Array.length a - 1 do
    Bigarray.Array1.unsafe_set t.data (r.base + i) (Array.unsafe_get a i)
  done

let init_region t r f =
  check_region "init_region" t r;
  own t;
  for i = 0 to r.words - 1 do
    Bigarray.Array1.unsafe_set t.data (r.base + i) (f i)
  done

let read_array t r =
  check_region "read_array" t r;
  Array.init r.words (fun i -> Bigarray.Array1.unsafe_get t.data (r.base + i))

let line_of_addr addr = addr / words_per_line
let regions t = List.rev t.regions

(* Regions never overlap (bump allocation), so searching the stored
   reversed list finds the same region as searching allocation order —
   without rebuilding the list on every lookup. *)
let find_region t addr =
  List.find_opt
    (fun r -> addr >= r.base && addr < r.base + r.words)
    t.regions
