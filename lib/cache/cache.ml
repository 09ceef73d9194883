type t = {
  assoc : int;
  set_mask : int;
  tags : int array;
      (* sets * assoc full line ids, each set most recent first with
         its invalid ways ([no_line]) at the tail *)
  marks : int array;  (* per way, moved with its tag; 0 on invalid ways *)
  mutable evicted_mark : int;
  mutable valid : int;
}

let no_line = -1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~size_bytes ~assoc ~line_bytes =
  if assoc <= 0 then invalid_arg "Cache.create: assoc <= 0";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc * line";
  let n_sets = size_bytes / (assoc * line_bytes) in
  if not (is_pow2 n_sets) then
    invalid_arg "Cache.create: number of sets must be a power of two";
  {
    assoc;
    set_mask = n_sets - 1;
    tags = Array.make (n_sets * assoc) no_line;
    marks = Array.make (n_sets * assoc) 0;
    evicted_mark = 0;
    valid = 0;
  }

let base_of t line = (line land t.set_mask) * t.assoc

(* Scans and shifts run several times per simulated load, so they use
   unsafe accesses, in bounds by construction: [base] is a set's first
   way and ways stay below [base + assoc]. A negative line is never
   present: without the guard, [no_line] would match an invalid way. *)
let find t ~base line =
  if line < 0 then -1
  else begin
    let tags = t.tags in
    let stop = base + t.assoc in
    let w = ref base in
    while !w < stop && Array.unsafe_get tags !w <> line do
      incr w
    done;
    if !w < stop then !w else -1
  end

(* Shift ways [base, i) down one, overwriting way [i], and put [line]
   with [mark] first. *)
let push_front t ~base i line mark =
  let tags = t.tags and marks = t.marks in
  for w = i downto base + 1 do
    Array.unsafe_set tags w (Array.unsafe_get tags (w - 1));
    Array.unsafe_set marks w (Array.unsafe_get marks (w - 1))
  done;
  Array.unsafe_set tags base line;
  Array.unsafe_set marks base mark

let probe t line = find t ~base:(base_of t line) line >= 0

let touch t line =
  let base = base_of t line in
  let i = find t ~base line in
  if i > base then push_front t ~base i line (Array.unsafe_get t.marks i);
  i >= 0

(* The last way is invalid whenever the set has an invalid way, else it
   holds the least recently used line: the way an argmin over LRU
   stamps picks, up to which invalid way, which nothing observes. *)
let insert_absent t line =
  if line < 0 then invalid_arg "Cache.insert: negative line";
  let base = base_of t line in
  let last = base + t.assoc - 1 in
  let evicted = Array.unsafe_get t.tags last in
  t.evicted_mark <- Array.unsafe_get t.marks last;
  push_front t ~base last line 0;
  if evicted = no_line then t.valid <- t.valid + 1;
  evicted

let insert t line =
  if touch t line then (t.evicted_mark <- 0; no_line) else insert_absent t line

let invalidate t line =
  let base = base_of t line in
  let i = find t ~base line in
  if i >= 0 then begin
    let tags = t.tags and marks = t.marks in
    let last = base + t.assoc - 1 in
    for w = i to last - 1 do
      Array.unsafe_set tags w (Array.unsafe_get tags (w + 1));
      Array.unsafe_set marks w (Array.unsafe_get marks (w + 1))
    done;
    Array.unsafe_set tags last no_line;
    Array.unsafe_set marks last 0;
    t.valid <- t.valid - 1
  end

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) no_line;
  Array.fill t.marks 0 (Array.length t.marks) 0;
  t.evicted_mark <- 0;
  t.valid <- 0

let occupancy t = t.valid
let evicted_mark t = t.evicted_mark

let mark t line =
  let i = find t ~base:(base_of t line) line in
  if i >= 0 then Array.unsafe_get t.marks i else 0

let set_mark t line m =
  let i = find t ~base:(base_of t line) line in
  if i >= 0 then Array.unsafe_set t.marks i m
