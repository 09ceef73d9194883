type slot = {
  mutable tag : int;
  mutable last_addr : int;
  mutable stride : int;
  mutable confidence : int;
}

type t = {
  enabled : bool;
  degree : int;
  table : slot array;
  mutable line_limit : int;
      (* exclusive upper bound on emitted line indices: prefetching
         past the backing region models nothing and, under shared
         streams with small per-tenant footprints, lands in another
         tenant's address range *)
  targets : int array;
      (* the last access's targets, ascending and distinct, in
         [0, n_targets): at most [degree] stride targets plus the
         next line *)
  mutable n_targets : int;
}

let create ?(stride_table_size = 256) ?(degree = 2) () =
  {
    enabled = true;
    degree;
    table =
      Array.init stride_table_size (fun _ ->
          { tag = -1; last_addr = 0; stride = 0; confidence = 0 });
    line_limit = max_int;
    targets = Array.make (max 0 degree + 1) 0;
    n_targets = 0;
  }

let disabled () = { (create ()) with enabled = false }

let set_line_limit t ~lines =
  t.line_limit <- (if lines <= 0 then max_int else lines)

(* [addr / Memory.words_per_line] for [addr >= 0], as a shift: the
   cross-module constant does not fold under [-opaque], so dividing by
   it is a runtime division, several per trained access. *)
let line_shift = Float.(to_int (log2 (of_int Aptget_mem.Memory.words_per_line)))
let () = assert (1 lsl line_shift = Aptget_mem.Memory.words_per_line)
let line_of addr = addr lsr line_shift

(* Insertion into the sorted, duplicate-free target buffer. *)
let emit t line =
  let a = t.targets in
  let n = t.n_targets in
  let i = ref 0 in
  while !i < n && a.(!i) < line do
    incr i
  done;
  if !i = n || a.(!i) <> line then begin
    for j = n downto !i + 1 do
      a.(j) <- a.(j - 1)
    done;
    a.(!i) <- line;
    t.n_targets <- n + 1
  end

let on_demand_access t ~pc ~addr ~miss =
  t.n_targets <- 0;
  if t.enabled then begin
    let slot = t.table.(pc land (Array.length t.table - 1)) in
    if slot.tag = pc then begin
      let stride = addr - slot.last_addr in
      if stride = slot.stride && stride <> 0 then
        slot.confidence <- Int.min 4 (slot.confidence + 1)
      else begin
        slot.stride <- stride;
        slot.confidence <- if stride <> 0 then 1 else 0
      end;
      slot.last_addr <- addr;
      if slot.confidence >= 2 then
        for d = 1 to t.degree do
          let target = addr + (slot.stride * d) in
          if
            target >= 0
            && line_of target < t.line_limit
            && line_of target <> line_of addr
          then emit t (line_of target)
        done
    end
    else begin
      slot.tag <- pc;
      slot.last_addr <- addr;
      slot.stride <- 0;
      slot.confidence <- 0
    end;
    (* Next-line prefetch on demand misses, clamped to the region: the
       last line of the footprint has no next line to fetch. *)
    if miss then begin
      let next = line_of addr + 1 in
      if next < t.line_limit then emit t next
    end
  end;
  t.n_targets

let target t i =
  if i < 0 || i >= t.n_targets then invalid_arg "Hwpf.target: no such target";
  t.targets.(i)
