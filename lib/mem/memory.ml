type region = { name : string; base : int; words : int }

type backend = [ `Array | `Bigarray ]

type big = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Two interchangeable backings with identical observable behaviour:

   - [Flat]: a plain OCaml [int array]. Every word is a scanned field
     of a major-heap block, so multi-megaword memories add real work to
     each major GC mark pass.
   - [Big]: a [Bigarray.Array1] of native ints. The payload lives
     outside the OCaml heap (the GC never scans it) and elements are
     untagged machine words, which is why it is the default for the
     simulator's load/store hot path.

   [Bigarray.Array1.create] does not zero its storage, so both the
   initial buffer and every grown tail are zero-filled explicitly.
   Every word at or past [next] is therefore still zero (writes are
   bounds-checked against [next], and [ensure] copies only [0, next)),
   which is why [alloc] hands out fresh regions, and the alignment gaps
   between them, without filling them. *)
type backing = Flat of int array | Big of big

type t = {
  mutable data : backing;
  mutable next : int;
  mutable regions : region list; (* reversed *)
}

let words_per_line = 8

let default_backend () : backend =
  match Sys.getenv_opt "APTGET_MEM_BACKEND" with
  | Some ("array" | "flat") -> `Array
  | _ -> `Bigarray

let make_big cap : big =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap in
  Bigarray.Array1.fill b 0;
  b

let create ?(capacity_words = 1 lsl 20) ?backing () =
  let backing =
    match backing with Some b -> b | None -> default_backend ()
  in
  let data =
    match backing with
    | `Array -> Flat (Array.make capacity_words 0)
    | `Bigarray -> Big (make_big capacity_words)
  in
  { data; next = 0; regions = [] }

let backend t : backend =
  match t.data with Flat _ -> `Array | Big _ -> `Bigarray

let capacity t =
  match t.data with
  | Flat a -> Array.length a
  | Big b -> Bigarray.Array1.dim b

let ensure t needed =
  let cap = capacity t in
  if needed > cap then begin
    let new_cap = max needed (cap * 2) in
    match t.data with
    | Flat a ->
      let fresh = Array.make new_cap 0 in
      Array.blit a 0 fresh 0 t.next;
      t.data <- Flat fresh
    | Big b ->
      let fresh = make_big new_cap in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub b 0 t.next)
        (Bigarray.Array1.sub fresh 0 t.next);
      t.data <- Big fresh
  end

let align_up v a = (v + a - 1) / a * a

let alloc t ~name ~words =
  if words < 0 then invalid_arg "Memory.alloc: negative size";
  let base = align_up t.next words_per_line in
  let words_alloc = max words 1 in
  ensure t (base + words_alloc);
  t.next <- base + words_alloc;
  let r = { name; base; words = words_alloc } in
  t.regions <- r :: t.regions;
  r

let size_words t = t.next

(* Cold out-of-bounds paths are split out so the bounds-checked
   accessors below stay small enough for cross-module inlining — [get]
   and [set] sit on the simulator's per-load/store hot path. *)
let[@inline never] oob_get addr =
  invalid_arg (Printf.sprintf "Memory.get: address %d out of bounds" addr)

let[@inline never] oob_set addr =
  invalid_arg (Printf.sprintf "Memory.set: address %d out of bounds" addr)

(* The explicit range check already implies the access is in bounds
   ([next <= capacity] is an [ensure] invariant), so the access itself
   can skip the second, redundant bounds check. *)
let[@inline] get t addr =
  if addr < 0 || addr >= t.next then oob_get addr;
  match t.data with
  | Flat a -> Array.unsafe_get a addr
  | Big b -> Bigarray.Array1.unsafe_get b addr

let[@inline] set t addr v =
  if addr < 0 || addr >= t.next then oob_set addr;
  match t.data with
  | Flat a -> Array.unsafe_set a addr v
  | Big b -> Bigarray.Array1.unsafe_set b addr v

let blit_array t r a =
  if Array.length a > r.words then invalid_arg "Memory.blit_array: too large";
  match t.data with
  | Flat d -> Array.blit a 0 d r.base (Array.length a)
  | Big b ->
    for i = 0 to Array.length a - 1 do
      Bigarray.Array1.unsafe_set b (r.base + i) (Array.unsafe_get a i)
    done

let init_region t r f =
  if r.base < 0 || r.base + r.words > t.next then
    invalid_arg "Memory.init_region: region out of bounds";
  match t.data with
  | Flat d ->
    for i = 0 to r.words - 1 do
      Array.unsafe_set d (r.base + i) (f i)
    done
  | Big b ->
    for i = 0 to r.words - 1 do
      Bigarray.Array1.unsafe_set b (r.base + i) (f i)
    done

let read_array t r =
  match t.data with
  | Flat d -> Array.sub d r.base r.words
  | Big b -> Array.init r.words (fun i -> Bigarray.Array1.unsafe_get b (r.base + i))

let line_of_addr addr = addr / words_per_line
let regions t = List.rev t.regions

(* Regions never overlap (bump allocation), so searching the stored
   reversed list finds the same region as searching allocation order —
   without rebuilding the list on every lookup. *)
let find_region t addr =
  List.find_opt
    (fun r -> addr >= r.base && addr < r.base + r.words)
    t.regions
