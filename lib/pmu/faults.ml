module Rng = Aptget_util.Rng

type config = {
  seed : int;
  lbr_drop_rate : float;
  cycle_jitter : int;
  lbr_truncate_rate : float;
  pebs_skid_rate : float;
  pebs_skid_max : int;
  throttle_budget : int;
  throttle_window : int;
  throttle_backoff : float;
}

let none =
  {
    seed = 0x5eed;
    lbr_drop_rate = 0.;
    cycle_jitter = 0;
    lbr_truncate_rate = 0.;
    pebs_skid_rate = 0.;
    pebs_skid_max = 2;
    throttle_budget = 0;
    throttle_window = 200_000;
    throttle_backoff = 2.;
  }

let default_faulty =
  {
    none with
    lbr_drop_rate = 0.10;
    cycle_jitter = 8;
    lbr_truncate_rate = 0.05;
    pebs_skid_rate = 0.20;
    pebs_skid_max = 2;
    throttle_budget = 256;
  }

let enabled c =
  c.lbr_drop_rate > 0. || c.cycle_jitter > 0 || c.lbr_truncate_rate > 0.
  || c.pebs_skid_rate > 0. || c.throttle_budget > 0

type stats = {
  lbr_dropped : int;
  lbr_truncated : int;
  stamps_jittered : int;
  pebs_skidded : int;
  throttled : int;
  backoff_factor : float;
}

type t = {
  cfg : config;
  rng : Rng.t;
  mutable lbr_dropped : int;
  mutable lbr_truncated : int;
  mutable stamps_jittered : int;
  mutable pebs_skidded : int;
  mutable throttled : int;
  mutable factor : float;
  mutable window_start : int;
  mutable window_count : int;
  mutable window_backed_off : bool;
}

let validate cfg =
  if cfg.lbr_drop_rate < 0. || cfg.lbr_drop_rate > 1. then
    Error "lbr_drop_rate outside [0, 1]"
  else if cfg.lbr_truncate_rate < 0. || cfg.lbr_truncate_rate > 1. then
    Error "lbr_truncate_rate outside [0, 1]"
  else if cfg.pebs_skid_rate < 0. || cfg.pebs_skid_rate > 1. then
    Error "pebs_skid_rate outside [0, 1]"
  else if cfg.cycle_jitter < 0 then Error "cycle_jitter < 0"
  else if cfg.throttle_budget > 0 && cfg.throttle_window <= 0 then
    Error "throttle_window <= 0"
  else if cfg.throttle_backoff < 1. then Error "throttle_backoff < 1"
  else Ok ()

let create cfg =
  (match validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Faults.create: " ^ e));
  {
    cfg;
    rng = Rng.create cfg.seed;
    lbr_dropped = 0;
    lbr_truncated = 0;
    stamps_jittered = 0;
    pebs_skidded = 0;
    throttled = 0;
    factor = 1.;
    window_start = 0;
    window_count = 0;
    window_backed_off = false;
  }

let config t = t.cfg

let stats t =
  {
    lbr_dropped = t.lbr_dropped;
    lbr_truncated = t.lbr_truncated;
    stamps_jittered = t.stamps_jittered;
    pebs_skidded = t.pebs_skidded;
    throttled = t.throttled;
    backoff_factor = t.factor;
  }

(* Each decision draws only when its knob is active: a config with a
   single fault enabled consumes exactly that fault's share of the RNG
   stream, so zero-rate knobs cannot perturb the others' schedules. *)
let hit t rate = rate > 0. && Rng.float t.rng 1.0 < rate

let jitter_cycle t cycle =
  if t.cfg.cycle_jitter <= 0 then cycle
  else begin
    let j = t.cfg.cycle_jitter in
    let off = Rng.int t.rng ((2 * j) + 1) - j in
    if off <> 0 then t.stamps_jittered <- t.stamps_jittered + 1;
    max 0 (cycle + off)
  end

let drop_lbr t =
  let d = hit t t.cfg.lbr_drop_rate in
  if d then t.lbr_dropped <- t.lbr_dropped + 1;
  d

let truncate_ring t n =
  if n <= 1 || not (hit t t.cfg.lbr_truncate_rate) then n
  else begin
    t.lbr_truncated <- t.lbr_truncated + 1;
    1 + Rng.int t.rng (n - 1)
  end

let skid_pc t pc =
  if t.cfg.pebs_skid_max <= 0 || not (hit t t.cfg.pebs_skid_rate) then pc
  else begin
    let off = 1 + Rng.int t.rng t.cfg.pebs_skid_max in
    let off = if Rng.bool t.rng then off else -off in
    t.pebs_skidded <- t.pebs_skidded + 1;
    max 0 (pc + off)
  end

(* Backoff is capped so the effective period stays representable even
   on pathological schedules. *)
let max_backoff = 4096.

let throttle_admit t ~cycle =
  if t.cfg.throttle_budget <= 0 then true
  else begin
    if cycle - t.window_start >= t.cfg.throttle_window then begin
      t.window_start <-
        cycle - ((cycle - t.window_start) mod t.cfg.throttle_window);
      t.window_count <- 0;
      t.window_backed_off <- false
    end;
    if t.window_count >= t.cfg.throttle_budget then begin
      t.throttled <- t.throttled + 1;
      if not t.window_backed_off then begin
        t.factor <- Float.min max_backoff (t.factor *. t.cfg.throttle_backoff);
        t.window_backed_off <- true
      end;
      false
    end
    else begin
      t.window_count <- t.window_count + 1;
      true
    end
  end

let backoff_factor t = t.factor
