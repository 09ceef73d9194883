type t = {
  n_sets : int;
  assoc : int;
  set_mask : int;
  tags : int array; (* n_sets * assoc, [no_line] = invalid; full line id *)
  lru : int array;
      (* recency stamp per way; larger = more recent. Invalid ways hold
         0 and valid ways at least 1 (the clock is bumped before every
         stamp), which is what lets [choose_victim] be a single argmin. *)
  mutable clock : int;
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
    n_sets;
    assoc;
    set_mask = n_sets - 1;
    tags = Array.make (n_sets * assoc) no_line;
    lru = Array.make (n_sets * assoc) 0;
    clock = 0;
    valid = 0;
  }

let sets t = t.n_sets
let assoc t = t.assoc
let set_of t line = line land t.set_mask

(* The way scans below run several times per simulated load (L1/L2/LLC
   probes, installs, invalidations), so they use unsafe accesses behind
   indices that are in bounds by construction: [set_of] masks the line
   into [0, n_sets) and ways stay below [assoc], so [base + w] is
   always within the [n_sets * assoc] backing arrays. A negative line
   is never present: without the guard, [no_line] would match every
   invalid way. *)
let slot t line =
  if line < 0 then -1
  else begin
    let base = set_of t line * t.assoc in
    let tags = t.tags in
    let stop = base + t.assoc in
    let w = ref base in
    while !w < stop && Array.unsafe_get tags !w <> line do
      incr w
    done;
    if !w < stop then !w else -1
  end

let probe t line = slot t line >= 0

let touch t line =
  let i = slot t line in
  if i >= 0 then begin
    t.clock <- t.clock + 1;
    Array.unsafe_set t.lru i t.clock;
    true
  end
  else false

(* The least recently used way of [line]'s set, ties to the lowest way.
   Invalid ways have stamp 0 and valid ones at least 1, so the first
   invalid way wins whenever there is one. *)
let choose_victim t line =
  let base = set_of t line * t.assoc in
  let lru = t.lru in
  let v = ref base in
  let stamp = ref (Array.unsafe_get lru base) in
  for w = base + 1 to base + t.assoc - 1 do
    let s = Array.unsafe_get lru w in
    if s < !stamp then begin
      v := w;
      stamp := s
    end
  done;
  !v

let insert_absent t line =
  if line < 0 then invalid_arg "Cache.insert: negative line";
  let victim = choose_victim t line in
  let evicted = Array.unsafe_get t.tags victim in
  if evicted = no_line then t.valid <- t.valid + 1;
  t.clock <- t.clock + 1;
  Array.unsafe_set t.tags victim line;
  Array.unsafe_set t.lru victim t.clock;
  evicted

let insert t line =
  let i = slot t line in
  if i >= 0 then begin
    t.clock <- t.clock + 1;
    Array.unsafe_set t.lru i t.clock;
    no_line
  end
  else insert_absent t line

let invalidate t line =
  let i = slot t line in
  if i >= 0 then begin
    t.tags.(i) <- no_line;
    t.lru.(i) <- 0;
    t.valid <- t.valid - 1
  end

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) no_line;
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.clock <- 0;
  t.valid <- 0

let occupancy t = t.valid
let slots t = t.n_sets * t.assoc
