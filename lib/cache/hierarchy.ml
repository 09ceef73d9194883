type config = {
  line_bytes : int;
  l1_size : int;
  l1_assoc : int;
  l1_latency : int;
  l2_size : int;
  l2_assoc : int;
  l2_latency : int;
  llc_size : int;
  llc_assoc : int;
  llc_latency : int;
  dram_latency : int;
  dram_min_gap : int;
  mshr_capacity : int;
  hw_prefetch : bool;
}

let default_config =
  {
    line_bytes = 64;
    l1_size = 32 * 1024;
    l1_assoc = 8;
    l1_latency = 4;
    l2_size = 256 * 1024;
    l2_assoc = 8;
    l2_latency = 14;
    llc_size = 2 * 1024 * 1024;
    llc_assoc = 16;
    llc_latency = 50;
    dram_latency = 250;
    dram_min_gap = 0;
    mshr_capacity = 16;
    hw_prefetch = true;
  }

type level = L1 | L2 | Llc | Dram

(* A demand load's result, packed into an immediate int so the
   per-load path allocates nothing: latency in the high bits, then the
   late-SW-prefetch flag (bit 3), the fill-buffer-hit flag (bit 2) and
   the serving level (bits 0-1). *)
type access = int

let code_l1 = 0
let code_l2 = 1
let code_llc = 2
let code_dram = 3
let fill_buffer_bit = 4
let late_sw_bit = 8

let pack ~latency code = (latency lsl 4) lor code
let latency (a : access) = a lsr 4

let served_from (a : access) =
  match a land 3 with 0 -> L1 | 1 -> L2 | 2 -> Llc | _ -> Dram

let fill_buffer_hit (a : access) = a land fill_buffer_bit <> 0
let late_sw_prefetch (a : access) = a land late_sw_bit <> 0

(* Fields are mutable so the per-access hot path bumps them in place;
   a functional [{ c with ... }] update allocated a fresh 15-field
   record on every counter event (several per demand load). External
   readers get a snapshot copy from [counters]. *)
type counters = {
  mutable demand_loads : int;
  mutable hits_l1 : int;
  mutable hits_l2 : int;
  mutable hits_llc : int;
  mutable dram_fills_demand : int;
  mutable load_hit_pre_sw_pf : int;
  mutable offcore_all_data_rd : int;
  mutable offcore_demand_data_rd : int;
  mutable sw_prefetch_issued : int;
  mutable sw_prefetch_useless : int;
  mutable sw_prefetch_dropped : int;
  mutable hw_prefetch_issued : int;
  mutable stall_cycles_l2 : int;
  mutable stall_cycles_llc : int;
  mutable stall_cycles_dram : int;
  mutable sw_prefetch_early_evict : int;
}

let zero_counters () =
  {
    demand_loads = 0;
    hits_l1 = 0;
    hits_l2 = 0;
    hits_llc = 0;
    dram_fills_demand = 0;
    load_hit_pre_sw_pf = 0;
    offcore_all_data_rd = 0;
    offcore_demand_data_rd = 0;
    sw_prefetch_issued = 0;
    sw_prefetch_useless = 0;
    sw_prefetch_dropped = 0;
    hw_prefetch_issued = 0;
    stall_cycles_l2 = 0;
    stall_cycles_llc = 0;
    stall_cycles_dram = 0;
    sw_prefetch_early_evict = 0;
  }

(* Field-wise [a - b]: counter deltas over a window of execution. *)
let sub_counters (a : counters) (b : counters) =
  {
    demand_loads = a.demand_loads - b.demand_loads;
    hits_l1 = a.hits_l1 - b.hits_l1;
    hits_l2 = a.hits_l2 - b.hits_l2;
    hits_llc = a.hits_llc - b.hits_llc;
    dram_fills_demand = a.dram_fills_demand - b.dram_fills_demand;
    load_hit_pre_sw_pf = a.load_hit_pre_sw_pf - b.load_hit_pre_sw_pf;
    offcore_all_data_rd = a.offcore_all_data_rd - b.offcore_all_data_rd;
    offcore_demand_data_rd = a.offcore_demand_data_rd - b.offcore_demand_data_rd;
    sw_prefetch_issued = a.sw_prefetch_issued - b.sw_prefetch_issued;
    sw_prefetch_useless = a.sw_prefetch_useless - b.sw_prefetch_useless;
    sw_prefetch_dropped = a.sw_prefetch_dropped - b.sw_prefetch_dropped;
    hw_prefetch_issued = a.hw_prefetch_issued - b.hw_prefetch_issued;
    stall_cycles_l2 = a.stall_cycles_l2 - b.stall_cycles_l2;
    stall_cycles_llc = a.stall_cycles_llc - b.stall_cycles_llc;
    stall_cycles_dram = a.stall_cycles_dram - b.stall_cycles_dram;
    sw_prefetch_early_evict = a.sw_prefetch_early_evict - b.sw_prefetch_early_evict;
  }

(* Field-wise [a + b]: aggregating counters across runs (e.g. summing
   per-segment measurements into a whole-campaign record). *)
let add_counters (a : counters) (b : counters) =
  {
    demand_loads = a.demand_loads + b.demand_loads;
    hits_l1 = a.hits_l1 + b.hits_l1;
    hits_l2 = a.hits_l2 + b.hits_l2;
    hits_llc = a.hits_llc + b.hits_llc;
    dram_fills_demand = a.dram_fills_demand + b.dram_fills_demand;
    load_hit_pre_sw_pf = a.load_hit_pre_sw_pf + b.load_hit_pre_sw_pf;
    offcore_all_data_rd = a.offcore_all_data_rd + b.offcore_all_data_rd;
    offcore_demand_data_rd = a.offcore_demand_data_rd + b.offcore_demand_data_rd;
    sw_prefetch_issued = a.sw_prefetch_issued + b.sw_prefetch_issued;
    sw_prefetch_useless = a.sw_prefetch_useless + b.sw_prefetch_useless;
    sw_prefetch_dropped = a.sw_prefetch_dropped + b.sw_prefetch_dropped;
    hw_prefetch_issued = a.hw_prefetch_issued + b.hw_prefetch_issued;
    stall_cycles_l2 = a.stall_cycles_l2 + b.stall_cycles_l2;
    stall_cycles_llc = a.stall_cycles_llc + b.stall_cycles_llc;
    stall_cycles_dram = a.stall_cycles_dram + b.stall_cycles_dram;
    sw_prefetch_early_evict = a.sw_prefetch_early_evict + b.sw_prefetch_early_evict;
  }

(* The LLC and the DRAM channel are *shared* resources: several
   streams (co-running tenants) can attach to one [shared], each with
   private L1/L2/MSHR/prefetcher/counters. The solo case is a shared
   level with a single attached stream, and takes exactly the code
   paths it always did.

   Per-stream line ids are kept disjoint by offsetting every line with
   a per-stream base ([stream lsl 44]): workload memories all start at
   word address 0, and without the offset two tenants' address spaces
   would alias in the shared LLC. The base is a multiple of every
   power-of-two set count, so set indexing (and hence conflict
   behaviour) is unchanged — tenants genuinely contend for the same
   sets, as they would behind a physical indexer. *)
type t = {
  cfg : config;
  shared : shared;
  l1 : Cache.t;
  l2 : Cache.t;
  mshr : Mshr.t;
  hwpf : Hwpf.t;
  mutable c : counters;
  line_base : int;
      (* per-stream offset added to every line id (0 for stream 0 /
         the solo path) *)
  line_shift : int;
      (* log2 of words per line when that is a power of two, else -1;
         lets [line_of] shift instead of running an integer division on
         every access *)
  owner_tag : int;
      (* 1 + this stream's index in [shared.streams]: the LLC mark of
         its SW-prefetch fills *)
}

and shared = {
  s_cfg : config;
  llc : Cache.t;
      (* A line's mark is the [owner_tag] of the stream whose
         SW-prefetch fill installed it, until a demand load uses it.
         Evicting a marked line is a too-early prefetch charged to that
         stream: to the stream, not its counters record, so the charge
         survives [reset_counters], which swaps the record out. *)
  mutable next_dram_slot : int;
      (* earliest cycle the DRAM channel can start another fill *)
  mutable n_pending : int;  (* marked LLC lines; 0 skips every mark lookup *)
  mutable streams : t array;
      (* in attach order; an inclusion victim is invalidated in the
         private levels of every stream whose line base it carries *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k n = if n <= 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

let create_shared cfg =
  let llc =
    Cache.create ~size_bytes:cfg.llc_size ~assoc:cfg.llc_assoc ~line_bytes:cfg.line_bytes
  in
  {
    s_cfg = cfg;
    llc;
    next_dram_slot = 0;
    n_pending = 0;
    streams = [||];
  }

(* Line ids carry their stream's base in the bits from [stream_shift]
   up: word addresses stay far below [1 lsl 44] lines. *)
let stream_shift = 44

let attach shared ~stream =
  if stream < 0 || stream > 255 then
    invalid_arg "Hierarchy.attach: stream id out of range";
  let cfg = shared.s_cfg in
  let t =
    {
      cfg;
      shared;
      l1 = Cache.create ~size_bytes:cfg.l1_size ~assoc:cfg.l1_assoc ~line_bytes:cfg.line_bytes;
      l2 = Cache.create ~size_bytes:cfg.l2_size ~assoc:cfg.l2_assoc ~line_bytes:cfg.line_bytes;
      mshr = Mshr.create ~capacity:cfg.mshr_capacity;
      hwpf = (if cfg.hw_prefetch then Hwpf.create () else Hwpf.disabled ());
      c = zero_counters ();
      line_base = stream lsl stream_shift;
      line_shift =
        (if cfg.line_bytes mod 8 = 0 && is_pow2 (cfg.line_bytes / 8) then
           log2 (cfg.line_bytes / 8)
         else -1);
      owner_tag = Array.length shared.streams + 1;
    }
  in
  shared.streams <- Array.append shared.streams [| t |];
  t

let create cfg = attach (create_shared cfg) ~stream:0

let config t = t.cfg

let set_prefetch_limit t ~words =
  let wpl = Aptget_mem.Memory.words_per_line in
  let lines = if words <= 0 then 0 else (words + wpl - 1) / wpl in
  Hwpf.set_line_limit t.hwpf ~lines

(* An LLC insert just evicted [victim]. Inclusion: the victim leaves
   the inner levels of the streams that can hold it, those whose line
   base it carries. Bases, not attach indices: streams attached under
   one id share a base and may each hold it. A pending SW-prefetch mark
   left with it: charge its owner. *)
let evicted t victim =
  if victim <> Cache.no_line then begin
    let sh = t.shared in
    let streams = sh.streams in
    let base = (victim lsr stream_shift) lsl stream_shift in
    for i = 0 to Array.length streams - 1 do
      let s = Array.unsafe_get streams i in
      if s.line_base = base then begin
        Cache.invalidate s.l2 victim;
        Cache.invalidate s.l1 victim
      end
    done;
    if sh.n_pending > 0 then begin
      let owner = Cache.evicted_mark sh.llc in
      if owner > 0 then begin
        sh.n_pending <- sh.n_pending - 1;
        let o = streams.(owner - 1) in
        o.c.sw_prefetch_early_evict <- o.c.sw_prefetch_early_evict + 1
      end
    end
  end

(* Install a completed fill everywhere (inclusive hierarchy). A line
   in this stream's MSHR is absent from its L1 and L2: it was absent
   when the fill was allocated, only a fill's completion installs it
   there, and other streams can only invalidate. The LLC keeps the
   presence scan, since a fill that started as an LLC hit is still
   there. *)
let install_fill t line =
  evicted t (Cache.insert t.shared.llc line);
  ignore (Cache.insert_absent t.l2 line);
  ignore (Cache.insert_absent t.l1 line)

(* [install_fill] for a line that just missed at all three levels. *)
let install_absent t line =
  evicted t (Cache.insert_absent t.shared.llc line);
  ignore (Cache.insert_absent t.l2 line);
  ignore (Cache.insert_absent t.l1 line)

(* Just installed, [line] leads its LLC set: each lookup is one
   comparison. *)
let mark_sw_fill t line =
  let sh = t.shared in
  if Cache.mark sh.llc line = 0 then sh.n_pending <- sh.n_pending + 1;
  Cache.set_mark sh.llc line t.owner_tag

(* A demand load of [line] uses its prefetch. *)
let clear_sw_mark sh line =
  if sh.n_pending <> 0 && Cache.mark sh.llc line <> 0 then begin
    Cache.set_mark sh.llc line 0;
    sh.n_pending <- sh.n_pending - 1
  end

(* Install every fill completed by [cycle], in [Mshr.next_ready]
   order. *)
let rec drain_fills t ~cycle =
  let i = Mshr.next_ready t.mshr ~now:cycle in
  if i >= 0 then begin
    let line = Mshr.line t.mshr i in
    let sw = Mshr.origin t.mshr i = Mshr.Sw_prefetch in
    Mshr.remove_at t.mshr i;
    install_fill t line;
    if sw then mark_sw_fill t line;
    drain_fills t ~cycle
  end

(* [addr * 8 / line_bytes] for [addr >= 0], as a shift on the
   all-but-universal power-of-two configs, plus the stream's line
   base. *)
let line_of t addr =
  t.line_base
  + if t.line_shift >= 0 then addr lsr t.line_shift else addr * 8 / t.cfg.line_bytes

(* Claim a DRAM channel slot: with a bandwidth bound, back-to-back
   fills are spaced [dram_min_gap] cycles apart and queueing delay adds
   to the fill's completion time. The channel is shared, so co-running
   streams queue behind each other. *)
let dram_start t ~cycle =
  if t.cfg.dram_min_gap <= 0 then cycle
  else begin
    let start = Int.max cycle t.shared.next_dram_slot in
    t.shared.next_dram_slot <- start + t.cfg.dram_min_gap;
    start
  end

(* Start a fill for a line absent from L1 and L2 and not in flight,
   from the LLC or DRAM. Returns true if a fill buffer was allocated.
   A fill the full MSHR refuses has claimed its DRAM slot all the same
   (ROADMAP item 3c). *)
let fill_from_below t ~line ~cycle ~origin =
  let from_dram = not (Cache.probe t.shared.llc line) in
  let ready_at =
    if from_dram then dram_start t ~cycle + t.cfg.dram_latency
    else cycle + t.cfg.llc_latency
  in
  let ok = Mshr.allocate t.mshr ~line ~ready_at ~origin in
  if ok && from_dram then
    t.c.offcore_all_data_rd <- t.c.offcore_all_data_rd + 1;
  ok

(* The prefetcher trains on raw (un-offset) addresses and emits raw
   line indices, so its extent clamp composes with the stream offset;
   the base is added when the fill enters the hierarchy.

   A target already in flight is absent from L1 and L2 (see
   [install_fill]), so it skips their probes. Its fill is refused, but,
   as for any target that misses L1 and L2, a DRAM target has claimed a
   channel slot first (ROADMAP item 3c). *)
let hw_prefetch_lines t ~pc ~addr ~miss ~cycle =
  let n = Hwpf.on_demand_access t.hwpf ~pc ~addr ~miss in
  for i = 0 to n - 1 do
    let line = t.line_base + Hwpf.target t.hwpf i in
    if Mshr.find t.mshr line >= 0 then begin
      if t.cfg.dram_min_gap > 0 && not (Cache.probe t.shared.llc line) then
        ignore (dram_start t ~cycle)
    end
    else if
      (not (Cache.probe t.l1 line || Cache.probe t.l2 line))
      && fill_from_below t ~line ~cycle ~origin:Mshr.Hw_prefetch
    then t.c.hw_prefetch_issued <- t.c.hw_prefetch_issued + 1
  done

(* A negative address has no cache line: it is served from DRAM and
   never cached, so it cannot alias a real line (or the caches' invalid
   tag). The machine's memory bounds check rejects it right after. *)
let uncached_load t =
  t.c.demand_loads <- t.c.demand_loads + 1;
  t.c.dram_fills_demand <- t.c.dram_fills_demand + 1;
  t.c.offcore_all_data_rd <- t.c.offcore_all_data_rd + 1;
  t.c.offcore_demand_data_rd <- t.c.offcore_demand_data_rd + 1;
  t.c.stall_cycles_dram <-
    t.c.stall_cycles_dram + t.cfg.dram_latency - t.cfg.l1_latency;
  pack ~latency:t.cfg.dram_latency code_dram

let demand_load t ~pc ~addr ~cycle =
  drain_fills t ~cycle;
  if addr < 0 then uncached_load t
  else begin
    let line = line_of t addr in
    t.c.demand_loads <- t.c.demand_loads + 1;
    let m = Mshr.find t.mshr line in
    if m >= 0 then begin
      (* Fill in flight: wait out the remainder, then it behaves like
         an L1 hit. The real counter treats this as a cache miss. *)
      let wait = Int.max 0 (Mshr.ready_at t.mshr m - cycle) in
      let late_sw = Mshr.origin t.mshr m = Mshr.Sw_prefetch in
      Mshr.remove_at t.mshr m;
      install_fill t line;
      (* installed, it leads its LLC set: one comparison finds it *)
      clear_sw_mark t.shared line;
      if late_sw then t.c.load_hit_pre_sw_pf <- t.c.load_hit_pre_sw_pf + 1;
      t.c.offcore_all_data_rd <- t.c.offcore_all_data_rd + 1;
      t.c.offcore_demand_data_rd <- t.c.offcore_demand_data_rd + 1;
      t.c.stall_cycles_dram <- t.c.stall_cycles_dram + wait;
      hw_prefetch_lines t ~pc ~addr ~miss:true ~cycle;
      pack
        ~latency:(wait + t.cfg.l1_latency)
        (code_dram lor fill_buffer_bit lor if late_sw then late_sw_bit else 0)
    end
    else if Cache.touch t.l1 line then begin
      clear_sw_mark t.shared line;
      t.c.hits_l1 <- t.c.hits_l1 + 1;
      hw_prefetch_lines t ~pc ~addr ~miss:false ~cycle;
      pack ~latency:t.cfg.l1_latency code_l1
    end
    else if Cache.touch t.l2 line then begin
      clear_sw_mark t.shared line;
      ignore (Cache.insert_absent t.l1 line);
      t.c.hits_l2 <- t.c.hits_l2 + 1;
      t.c.stall_cycles_l2 <-
        t.c.stall_cycles_l2 + t.cfg.l2_latency - t.cfg.l1_latency;
      hw_prefetch_lines t ~pc ~addr ~miss:true ~cycle;
      pack ~latency:t.cfg.l2_latency code_l2
    end
    else if Cache.touch t.shared.llc line then begin
      clear_sw_mark t.shared line;
      ignore (Cache.insert_absent t.l2 line);
      ignore (Cache.insert_absent t.l1 line);
      t.c.hits_llc <- t.c.hits_llc + 1;
      t.c.stall_cycles_llc <-
        t.c.stall_cycles_llc + t.cfg.llc_latency - t.cfg.l1_latency;
      hw_prefetch_lines t ~pc ~addr ~miss:true ~cycle;
      pack ~latency:t.cfg.llc_latency code_llc
    end
    else begin
      (* A line absent from the LLC carries no mark. *)
      install_absent t line;
      let start = dram_start t ~cycle in
      let latency = start - cycle + t.cfg.dram_latency in
      t.c.dram_fills_demand <- t.c.dram_fills_demand + 1;
      t.c.offcore_all_data_rd <- t.c.offcore_all_data_rd + 1;
      t.c.offcore_demand_data_rd <- t.c.offcore_demand_data_rd + 1;
      t.c.stall_cycles_dram <-
        t.c.stall_cycles_dram + latency - t.cfg.l1_latency;
      hw_prefetch_lines t ~pc ~addr ~miss:true ~cycle;
      pack ~latency code_dram
    end
  end

let sw_prefetch t ~addr ~cycle =
  if addr >= 0 then begin
    drain_fills t ~cycle;
    let line = line_of t addr in
    if
      Cache.probe t.l1 line || Cache.probe t.l2 line
      (* in flight: coalesces with the fill *)
      || Mshr.find t.mshr line >= 0
    then t.c.sw_prefetch_useless <- t.c.sw_prefetch_useless + 1
    else if fill_from_below t ~line ~cycle ~origin:Mshr.Sw_prefetch then
      t.c.sw_prefetch_issued <- t.c.sw_prefetch_issued + 1
    else t.c.sw_prefetch_dropped <- t.c.sw_prefetch_dropped + 1
  end

(* Snapshot copy: the live record keeps mutating after this call. *)
let counters t = { t.c with demand_loads = t.c.demand_loads }
let reset_counters t = t.c <- zero_counters ()

(* Flushing a stream also empties the shared levels (the solo
   behaviour); co-run drivers flush before any stream starts. *)
let flush t =
  Cache.clear t.l1;
  Cache.clear t.l2;
  Cache.clear t.shared.llc;
  Mshr.clear t.mshr;
  t.shared.next_dram_slot <- 0;
  t.shared.n_pending <- 0;
  reset_counters t
