type origin = Demand | Sw_prefetch | Hw_prefetch

(* Parallel fixed-capacity arrays, entries [0, n) in allocation order
   (oldest first): [remove_at] shifts the tail down rather than moving
   the last entry into the hole, so the index order is always the
   allocation order that [next_ready]'s tie-break relies on.

   [min_ready] is a lower bound on every entry's [ready_at], so
   [next_ready] can return at once while no fill can be due yet (the
   common case: a fill is in flight for tens of accesses before its
   completion cycle). [remove_at] may leave it stale-low; that only
   costs one wasted scan, which then refreshes it. *)
type t = {
  lines : int array;
  ready : int array;
  origins : origin array;
  mutable n : int;
  mutable min_ready : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Mshr.create: capacity <= 0";
  {
    lines = Array.make capacity 0;
    ready = Array.make capacity 0;
    origins = Array.make capacity Demand;
    n = 0;
    min_ready = max_int;
  }

let capacity t = Array.length t.lines
let in_flight t = t.n

let find t line =
  let lines = t.lines and n = t.n in
  let i = ref 0 in
  while !i < n && Array.unsafe_get lines !i <> line do
    incr i
  done;
  if !i < n then !i else -1

let check t i = if i < 0 || i >= t.n then invalid_arg "Mshr: no such entry"
let line t i = check t i; Array.unsafe_get t.lines i
let ready_at t i = check t i; Array.unsafe_get t.ready i
let origin t i = check t i; Array.unsafe_get t.origins i

(* Callers have looked the line up already: no second scan. *)
let allocate t ~line ~ready_at ~origin =
  if t.n >= Array.length t.lines then false
  else begin
    let i = t.n in
    t.lines.(i) <- line;
    t.ready.(i) <- ready_at;
    t.origins.(i) <- origin;
    t.n <- i + 1;
    if ready_at < t.min_ready then t.min_ready <- ready_at;
    true
  end

let remove_at t i =
  check t i;
  for j = i to t.n - 2 do
    t.lines.(j) <- t.lines.(j + 1);
    t.ready.(j) <- t.ready.(j + 1);
    t.origins.(j) <- t.origins.(j + 1)
  done;
  t.n <- t.n - 1

(* The earliest-completing due fill; among fills due at the same cycle
   the newest wins (the [<=] below keeps the highest index). *)
let next_ready t ~now =
  if now < t.min_ready then -1
  else begin
    let ready = t.ready in
    let best = ref (-1) and best_at = ref max_int and lowest = ref max_int in
    for i = 0 to t.n - 1 do
      let r = Array.unsafe_get ready i in
      if r <= now && r <= !best_at then begin
        best := i;
        best_at := r
      end;
      if r < !lowest then lowest := r
    done;
    if !best < 0 then t.min_ready <- !lowest;
    !best
  end

let clear t =
  t.n <- 0;
  t.min_ready <- max_int
